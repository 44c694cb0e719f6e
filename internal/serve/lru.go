package serve

// lru is the one least-recently-used list of the service: the result cache
// and the artifact store each keep their own index (hashmap.Map of keys,
// map of names) and their own budget (entries, bytes) over one. It is
// intrusive: a lruItem holds its value inline, so an entry is one
// allocation and moving it allocates nothing. Not safe for concurrent use;
// each owner guards its list with its own lock.
type lru[V any] struct {
	head, tail *lruItem[V] // head is the most recently used
}

// lruItem is one entry of an lru list.
type lruItem[V any] struct {
	prev, next *lruItem[V]
	v          V
}

// toFront makes e the most recently used entry, linking it first if it is
// on no list.
func (l *lru[V]) toFront(e *lruItem[V]) {
	if l.head == e {
		return
	}
	l.unlink(e)
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

// unlink takes e off the list; an entry on no list is left as it is.
func (l *lru[V]) unlink(e *lruItem[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if l.head == e {
		l.head = e.next
	}
	if l.tail == e {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// oldest returns the least recently used entry, nil when the list is empty.
func (l *lru[V]) oldest() *lruItem[V] { return l.tail }

// popOldest unlinks and returns the least recently used entry, nil when the
// list is empty.
func (l *lru[V]) popOldest() *lruItem[V] {
	e := l.tail
	if e != nil {
		l.unlink(e)
	}
	return e
}

// each calls f on every entry from least to most recently used: the order
// the restart files store, so replaying them through toFront reproduces
// the list.
func (l *lru[V]) each(f func(*V)) {
	for e := l.tail; e != nil; e = e.prev {
		f(&e.v)
	}
}
