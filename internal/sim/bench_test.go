package sim

import "testing"

// benchThread is a minimal self-clocking thread for scheduler benchmarks.
type benchThread struct {
	id    int
	clock Time
	step  Time
}

func (t *benchThread) ID() int        { return t.id }
func (t *benchThread) Clock() Time    { return t.clock }
func (t *benchThread) Resume(at Time) { t.clock = at }
func (t *benchThread) Step() Status {
	t.clock += t.step
	return Runnable
}

// BenchmarkSchedulerStep measures the scheduler's pick-min/step/reheap cycle
// with 32 runnable threads advancing at coprime rates (so the heap order
// keeps changing, as in a real run).
func BenchmarkSchedulerStep(b *testing.B) {
	b.ReportAllocs()
	s := NewScheduler()
	for i := 0; i < 32; i++ {
		s.Add(&benchThread{id: i, step: Time(13 + i*7)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkResourceAcquire measures the busy-calendar resource under
// out-of-order arrivals.
func BenchmarkResourceAcquire(b *testing.B) {
	b.ReportAllocs()
	var r Resource
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Acquire(Time(i*3%(1<<14)), 2)
	}
}

// BenchmarkResourceAcquireFloor runs a simulator-shaped stream (arrivals up
// to 1024 cycles past an advancing floor) through a calendar that keeps its
// whole past up to maxIntervals (detached) and one that prunes below the
// floor (attached).
func BenchmarkResourceAcquireFloor(b *testing.B) {
	for _, attached := range []bool{false, true} {
		name := "detached"
		if attached {
			name = "attached"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			s := floorStream{x: 1}
			var r Resource
			if attached {
				r.SetFloor(&s.floor)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Acquire(s.next())
			}
		})
	}
}
