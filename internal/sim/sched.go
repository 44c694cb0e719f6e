package sim

import "fmt"

// Status is the result of a Thread.Step call.
type Status uint8

const (
	// Runnable means the thread advanced and can be stepped again.
	Runnable Status = iota
	// Parked means the thread blocked (barrier, lock, explicit pause) and
	// must not be stepped until Unpark is called for it.
	Parked
	// Done means the thread finished its op stream.
	Done
)

// Thread is a simulated thread of execution with its own local clock.
// Implementations advance their clock in Step as they consume simulated work.
type Thread interface {
	// ID returns a unique, stable identifier (also the tie-breaker for
	// deterministic scheduling). IDs should be small non-negative integers:
	// the scheduler indexes a dense table with them.
	ID() int
	// Clock returns the thread's local time.
	Clock() Time
	// Step executes the thread's next unit of work.
	Step() Status
	// Resume moves the thread's clock forward to at least t. Called when a
	// parked thread is released (the releaser decides the wake-up time).
	Resume(t Time)
}

// Scheduler interleaves threads deterministically by always stepping the
// runnable thread with the smallest local clock (ties broken by ID). Because
// global time never moves backwards across steps, contended Resources are
// acquired in nondecreasing time order.
//
// Global time is published as the floor (Floor): the clock of the thread
// about to be stepped. Every thread's clock only grows and a released thread
// resumes at its releaser's time or later, so the floor never decreases and
// nothing a step does can happen before it — which is what lets Resource
// calendars forget the intervals that end before it.
//
// The runnable set is an inlined min-heap over (clock, id) with both keys
// cached in the entry — refreshing the cached clock once per step avoids two
// interface calls per heap comparison — and the ID lookup table is a dense
// slice, since thread IDs are small integers.
type Scheduler struct {
	h      []*schedEntry
	byID   []*schedEntry // dense: thread ID -> entry, nil when unregistered
	parked int
	done   int
	total  int
	floor  Time
}

type schedEntry struct {
	t      Thread
	clock  Time // cached t.Clock(), refreshed when the thread moves
	id     int  // cached t.ID()
	idx    int  // heap index; -1 when not in heap
	parked bool
	fini   bool
}

// NewScheduler returns an empty scheduler.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Add registers a thread. Adding two threads with the same ID panics.
func (s *Scheduler) Add(t Thread) {
	id := t.ID()
	if id < 0 {
		panic(fmt.Sprintf("sim: negative thread id %d", id))
	}
	for id >= len(s.byID) {
		s.byID = append(s.byID, nil)
	}
	if s.byID[id] != nil {
		panic(fmt.Sprintf("sim: duplicate thread id %d", id))
	}
	e := &schedEntry{t: t, clock: t.Clock(), id: id, idx: -1}
	s.byID[id] = e
	s.push(e)
	s.total++
}

// Unpark releases a parked thread, resuming it at time ≥ t. Unparking a
// thread that is not parked panics (it would indicate a protocol bug).
func (s *Scheduler) Unpark(id int, t Time) {
	var e *schedEntry
	if id >= 0 && id < len(s.byID) {
		e = s.byID[id]
	}
	if e == nil || !e.parked {
		panic(fmt.Sprintf("sim: Unpark of non-parked thread %d", id))
	}
	e.parked = false
	s.parked--
	e.t.Resume(t)
	e.clock = e.t.Clock()
	s.push(e)
}

// Floor returns the address of the scheduler's floor, for Resource.SetFloor.
// It is updated before every step; it only ever rises, even if a thread were
// resumed behind it, so that thread's requests would fail loudly at a
// floor-attached Resource instead of reading a forgotten past.
func (s *Scheduler) Floor() *Time { return &s.floor }

// Running reports how many threads are neither parked nor done.
func (s *Scheduler) Running() int { return len(s.h) }

// Done reports how many threads have finished.
func (s *Scheduler) Done() int { return s.done }

// Step runs one step of the earliest thread. It reports false when no thread
// is runnable (all parked or done).
func (s *Scheduler) Step() bool {
	if len(s.h) == 0 {
		return false
	}
	e := s.h[0]
	if e.clock > s.floor {
		s.floor = e.clock
	}
	switch e.t.Step() {
	case Runnable:
		e.clock = e.t.Clock()
		s.siftDown(0)
	case Parked:
		s.remove(0)
		e.parked = true
		s.parked++
	case Done:
		s.remove(0)
		e.fini = true
		s.done++
	}
	return true
}

// Run steps threads until none are runnable. It returns an error if threads
// remain parked with nobody left to wake them (a deadlock in the simulated
// program), which would otherwise be silent.
func (s *Scheduler) Run() error {
	for s.Step() {
	}
	if s.parked > 0 {
		return fmt.Errorf("sim: deadlock: %d of %d threads parked with no runnable thread", s.parked, s.total)
	}
	return nil
}

// --- inlined binary min-heap over (clock, id) ---

func entryLess(a, b *schedEntry) bool {
	if a.clock != b.clock {
		return a.clock < b.clock
	}
	return a.id < b.id
}

func (s *Scheduler) push(e *schedEntry) {
	e.idx = len(s.h)
	s.h = append(s.h, e)
	s.siftUp(e.idx)
}

// remove takes the entry at heap index i out of the heap.
func (s *Scheduler) remove(i int) {
	n := len(s.h) - 1
	e := s.h[i]
	if i != n {
		s.h[i] = s.h[n]
		s.h[i].idx = i
	}
	s.h[n] = nil
	s.h = s.h[:n]
	if i < n {
		s.siftDown(i)
		s.siftUp(i)
	}
	e.idx = -1
}

func (s *Scheduler) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(s.h[i], s.h[parent]) {
			break
		}
		s.h[i], s.h[parent] = s.h[parent], s.h[i]
		s.h[i].idx, s.h[parent].idx = i, parent
		i = parent
	}
}

func (s *Scheduler) siftDown(i int) {
	n := len(s.h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		min := l
		if r := l + 1; r < n && entryLess(s.h[r], s.h[l]) {
			min = r
		}
		if !entryLess(s.h[min], s.h[i]) {
			return
		}
		s.h[i], s.h[min] = s.h[min], s.h[i]
		s.h[i].idx, s.h[min].idx = i, min
		i = min
	}
}
