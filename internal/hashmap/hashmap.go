// Package hashmap provides the open-addressed hash table behind the
// simulator's page-keyed directories (the AGG machine's page homes and the
// D-node Directory arrays of §2.2.2, the NUMA and COMA home directories) and
// the service's result cache. Finding a page's record is on the hot path of
// all three machine models, and a Go map probe there costs an interface-free
// but still hash-function-heavy runtime call plus pointer chasing. Map is a
// uint64-keyed linear-probing table with Fibonacci hashing and backward-shift
// deletion (no tombstones), so a lookup is a multiply, a shift and a short
// linear scan over one flat array of {key, value} slots.
package hashmap

// fibMul is 2^64 / phi, the classic Fibonacci-hashing multiplier: it spreads
// line addresses (which share low zero bits from alignment) across the high
// bits that index the table.
const fibMul = 0x9E3779B97F4A7C15

// minCap is the smallest table allocated; must be a power of two.
const minCap = 16

// maxLoadNum/maxLoadDen cap the load factor at 13/16 ≈ 0.81 — linear probing
// stays short because Fibonacci hashing randomizes the high bits.
const (
	maxLoadNum = 13
	maxLoadDen = 16
)

// Map is an open-addressed hash table from uint64 keys to values of type V.
// The zero value is an empty map ready for use. It is not safe for concurrent
// use, matching the simulator's single-threaded-per-run discipline.
//
// The table is one array of {key, val} slots, so a probe touches one slot.
// Key 0 doubles as the empty-slot marker and zeroAt remembers the one slot
// that really holds key 0, so every uint64 is a valid key. Each key sits
// where a table with a separate used flag per slot would put it: slot
// indices, probe runs and Range order depend only on the operation history.
// Nothing depends on Range order: only tests range over a Map.
type Map[V any] struct {
	slots []slot[V]
	n     int
	// shift turns the 64-bit hash into a table index: idx = hash >> shift.
	shift uint
	// zeroAt is 1 + the index of the slot holding key 0, or 0 when key 0 is
	// absent.
	zeroAt uint64
}

type slot[V any] struct {
	key uint64
	val V
}

// Len returns the number of stored entries.
func (m *Map[V]) Len() int { return m.n }

func (m *Map[V]) home(k uint64) uint64 { return (k * fibMul) >> m.shift }

// used reports whether slot i holds an entry.
func (m *Map[V]) used(i uint64) bool { return m.slots[i].key != 0 || i+1 == m.zeroAt }

// Get returns the value stored for k.
func (m *Map[V]) Get(k uint64) (v V, ok bool) {
	if m.n == 0 {
		return v, false
	}
	mask := uint64(len(m.slots) - 1)
	for i := m.home(k); ; i = (i + 1) & mask {
		// The empty test is !m.used(i) written out: calling used would
		// push Get over the compiler's inlining budget.
		s := &m.slots[i]
		if s.key == 0 && i+1 != m.zeroAt {
			return v, false
		}
		if s.key == k {
			return s.val, true
		}
	}
}

// Put stores v for k, replacing any previous value.
func (m *Map[V]) Put(k uint64, v V) {
	if (m.n+1)*maxLoadDen > len(m.slots)*maxLoadNum {
		m.grow()
	}
	mask := uint64(len(m.slots) - 1)
	for i := m.home(k); ; i = (i + 1) & mask {
		if !m.used(i) {
			m.fill(i, k, v)
			return
		}
		if m.slots[i].key == k {
			m.slots[i].val = v
			return
		}
	}
}

// fill stores a new entry in the empty slot i.
func (m *Map[V]) fill(i, k uint64, v V) {
	m.slots[i] = slot[V]{key: k, val: v}
	if k == 0 {
		m.zeroAt = i + 1
	}
	m.n++
}

// Delete removes k and reports whether it was present. Deletion shifts the
// following probe run backward instead of leaving a tombstone, so lookup cost
// never degrades with churn.
func (m *Map[V]) Delete(k uint64) bool {
	if m.n == 0 {
		return false
	}
	mask := uint64(len(m.slots) - 1)
	i := m.home(k)
	for {
		if !m.used(i) {
			return false
		}
		if m.slots[i].key == k {
			break
		}
		i = (i + 1) & mask
	}
	if k == 0 {
		m.zeroAt = 0
	}
	// Backward-shift: any entry later in the probe run that would still be
	// reachable from its home position after moving into the hole does move.
	j := i
	for {
		j = (j + 1) & mask
		if !m.used(j) {
			break
		}
		h := m.home(m.slots[j].key)
		if ((j - h) & mask) >= ((j - i) & mask) {
			m.slots[i] = m.slots[j]
			if j+1 == m.zeroAt {
				m.zeroAt = i + 1
			}
			i = j
		}
	}
	m.slots[i] = slot[V]{}
	m.n--
	return true
}

// Range calls fn for every entry until fn returns false. The iteration order
// is the table's probe order: deterministic for a deterministic operation
// history, but otherwise unspecified. fn must not add or delete entries.
func (m *Map[V]) Range(fn func(k uint64, v V) bool) {
	for i := range m.slots {
		if m.used(uint64(i)) && !fn(m.slots[i].key, m.slots[i].val) {
			return
		}
	}
}

// Reset drops every entry but keeps the allocated table for reuse.
func (m *Map[V]) Reset() {
	clear(m.slots)
	m.n = 0
	m.zeroAt = 0
}

func (m *Map[V]) grow() {
	newCap := minCap
	if len(m.slots) > 0 {
		newCap = len(m.slots) * 2
	}
	old, oldZeroAt := m.slots, m.zeroAt
	m.slots = make([]slot[V], newCap)
	m.n = 0
	m.zeroAt = 0
	m.shift = 64
	for c := newCap; c > 1; c >>= 1 {
		m.shift--
	}
	mask := uint64(newCap - 1)
	for i, s := range old {
		if s.key == 0 && uint64(i)+1 != oldZeroAt {
			continue
		}
		// Put without the growth check or the duplicate test.
		j := m.home(s.key)
		for m.used(j) {
			j = (j + 1) & mask
		}
		m.fill(j, s.key, s.val)
	}
}
