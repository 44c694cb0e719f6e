package sim

import (
	"testing"
)

// stubThread advances its clock by stride each step, finishing after n steps.
// It records the global order in which steps happen into trace.
type stubThread struct {
	id     int
	clock  Time
	stride Time
	left   int
	trace  *[]stepRecord
	parkAt int // park on this remaining-step count (0 = never)
}

type stepRecord struct {
	id    int
	clock Time
}

func (s *stubThread) ID() int     { return s.id }
func (s *stubThread) Clock() Time { return s.clock }
func (s *stubThread) Resume(t Time) {
	if t > s.clock {
		s.clock = t
	}
}
func (s *stubThread) Step() Status {
	*s.trace = append(*s.trace, stepRecord{s.id, s.clock})
	s.clock += s.stride
	s.left--
	if s.left == 0 {
		return Done
	}
	if s.parkAt != 0 && s.left == s.parkAt {
		return Parked
	}
	return Runnable
}

func TestSchedulerGlobalOrder(t *testing.T) {
	var trace []stepRecord
	s := NewScheduler()
	s.Add(&stubThread{id: 0, stride: 7, left: 20, trace: &trace})
	s.Add(&stubThread{id: 1, stride: 3, left: 40, trace: &trace})
	s.Add(&stubThread{id: 2, stride: 11, left: 12, trace: &trace})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(trace) != 72 {
		t.Fatalf("ran %d steps, want 72", len(trace))
	}
	for i := 1; i < len(trace); i++ {
		if trace[i].clock < trace[i-1].clock {
			t.Fatalf("global time went backwards at step %d: %v -> %v", i, trace[i-1], trace[i])
		}
	}
	if s.Done() != 3 {
		t.Fatalf("Done = %d, want 3", s.Done())
	}
}

func TestSchedulerTieBreakByID(t *testing.T) {
	var trace []stepRecord
	s := NewScheduler()
	s.Add(&stubThread{id: 2, stride: 10, left: 3, trace: &trace})
	s.Add(&stubThread{id: 0, stride: 10, left: 3, trace: &trace})
	s.Add(&stubThread{id: 1, stride: 10, left: 3, trace: &trace})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// At every time step all three have equal clocks; order must be 0,1,2.
	for i := 0; i < len(trace); i += 3 {
		if trace[i].id != 0 || trace[i+1].id != 1 || trace[i+2].id != 2 {
			t.Fatalf("tie-break order wrong at %d: %v", i, trace[i:i+3])
		}
	}
}

func TestSchedulerParkUnpark(t *testing.T) {
	var trace []stepRecord
	s := NewScheduler()
	a := &stubThread{id: 0, stride: 5, left: 4, parkAt: 2, trace: &trace}
	b := &stubThread{id: 1, stride: 5, left: 2, trace: &trace}
	s.Add(a)
	s.Add(b)
	// Run until a parks and b finishes.
	for s.Step() {
	}
	if a.left != 2 {
		t.Fatalf("a.left = %d, want 2 (parked)", a.left)
	}
	s.Unpark(0, 100)
	if a.Clock() != 100 {
		t.Fatalf("resumed clock = %d, want 100", a.Clock())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Done() != 2 {
		t.Fatalf("Done = %d, want 2", s.Done())
	}
}

func TestSchedulerDeadlockDetected(t *testing.T) {
	var trace []stepRecord
	s := NewScheduler()
	s.Add(&stubThread{id: 0, stride: 1, left: 5, parkAt: 3, trace: &trace})
	if err := s.Run(); err == nil {
		t.Fatal("expected deadlock error, got nil")
	}
}

func TestSchedulerDuplicateIDPanics(t *testing.T) {
	var trace []stepRecord
	s := NewScheduler()
	s.Add(&stubThread{id: 7, stride: 1, left: 1, trace: &trace})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate ID did not panic")
		}
	}()
	s.Add(&stubThread{id: 7, stride: 1, left: 1, trace: &trace})
}

func TestSchedulerUnparkNonParkedPanics(t *testing.T) {
	var trace []stepRecord
	s := NewScheduler()
	s.Add(&stubThread{id: 0, stride: 1, left: 2, trace: &trace})
	defer func() {
		if recover() == nil {
			t.Fatal("Unpark of runnable thread did not panic")
		}
	}()
	s.Unpark(0, 10)
}

// syncThread runs a script of steps against a shared syncState that wakes
// parked threads the way cpu.SyncDomain does: a barrier's last arriver
// releases everyone at the latest arrival plus an exit cost, and a lock
// holder hands the lock to the first waiter at its own release time. Each
// step checks the scheduler's floor against the stepped thread's clock.
type syncThread struct {
	id     int
	clock  Time
	script []syncOp
	st     *syncState
}

type syncOp struct {
	kind byte // 'w' work, 'b' barrier, 'l' lock, 'u' unlock
	n    Time // work cycles
}

type syncState struct {
	s         *Scheduler
	floors    []Time
	t         *testing.T
	barWait   []int
	barLast   Time
	holder    int
	lockQueue []int

	releases, handoffs int
}

func (th *syncThread) ID() int     { return th.id }
func (th *syncThread) Clock() Time { return th.clock }
func (th *syncThread) Resume(t Time) {
	if t > th.clock {
		th.clock = t
	}
}

func (th *syncThread) Step() Status {
	st := th.st
	f := *st.s.Floor()
	if f != th.clock {
		st.t.Fatalf("thread %d stepped at clock %d with the floor at %d", th.id, th.clock, f)
	}
	if n := len(st.floors); n > 0 && f < st.floors[n-1] {
		st.t.Fatalf("floor went backwards: %d -> %d", st.floors[n-1], f)
	}
	st.floors = append(st.floors, f)
	if len(th.script) == 0 {
		return Done
	}
	op := th.script[0]
	switch op.kind {
	case 'w':
		th.clock += op.n
	case 'b':
		if th.clock > st.barLast {
			st.barLast = th.clock
		}
		if len(st.barWait)+1 < 3 {
			st.barWait = append(st.barWait, th.id)
			th.script = th.script[1:]
			return Parked
		}
		for _, w := range st.barWait {
			st.s.Unpark(w, st.barLast+100)
		}
		st.barWait, st.barLast = st.barWait[:0], 0
		st.releases++
	case 'l':
		if st.holder >= 0 && st.holder != th.id {
			st.lockQueue = append(st.lockQueue, th.id)
			return Parked // retry the acquire after the hand-off
		}
		st.holder = th.id
		th.clock += 20
	case 'u':
		st.holder = -1
		if len(st.lockQueue) > 0 {
			st.holder, st.lockQueue = st.lockQueue[0], st.lockQueue[1:]
			st.s.Unpark(st.holder, th.clock)
			st.handoffs++
		}
	}
	th.script = th.script[1:]
	return Runnable
}

// TestSchedulerFloorNeverDecreases pins the floor the Resource calendars
// prune against: across parks, barrier releases and lock hand-offs, every
// step happens exactly at the floor and the floor never moves backwards.
func TestSchedulerFloorNeverDecreases(t *testing.T) {
	s := NewScheduler()
	st := &syncState{s: s, t: t, holder: -1}
	w := func(n Time) syncOp { return syncOp{'w', n} }
	b, l, u := syncOp{kind: 'b'}, syncOp{kind: 'l'}, syncOp{kind: 'u'}
	scripts := [][]syncOp{
		{w(5), l, w(300), u, b, w(7), l, w(3), u, b, w(1)},
		{w(40), l, w(10), u, b, w(900), b, l, w(50), u},
		{w(9), w(9), l, w(60), u, b, l, u, w(2), b, w(11)},
	}
	for i, sc := range scripts {
		s.Add(&syncThread{id: i, script: sc, st: st})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Done() != len(scripts) {
		t.Fatalf("Done = %d, want %d", s.Done(), len(scripts))
	}
	if st.releases != 2 || st.handoffs < 2 {
		t.Fatalf("%d barrier releases and %d lock hand-offs, want 2 and at least 2", st.releases, st.handoffs)
	}
}

// TestSchedulerFloorHoldsWhenResumedBehind: a thread resumed behind global
// time does not drag the floor back; the floor stays put, so a floor-attached
// Resource rejects that thread's requests instead of reading dropped state.
func TestSchedulerFloorHoldsWhenResumedBehind(t *testing.T) {
	var trace []stepRecord
	s := NewScheduler()
	a := &stubThread{id: 0, stride: 5, left: 4, parkAt: 3, trace: &trace}
	bt := &stubThread{id: 1, stride: 50, left: 2, trace: &trace}
	s.Add(a)
	s.Add(bt)
	for s.Step() {
	}
	high := *s.Floor()
	if high != 50 {
		t.Fatalf("floor = %d after the last step at 50", high)
	}
	s.Unpark(0, 10) // behind the floor
	s.Step()
	if f := *s.Floor(); f != high {
		t.Fatalf("floor moved from %d to %d for a thread resumed behind it", high, f)
	}
}
