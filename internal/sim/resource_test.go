package sim

import (
	"testing"
	"testing/quick"
)

func TestResourceUncontended(t *testing.T) {
	var r Resource
	if start := r.Acquire(100, 10); start != 100 {
		t.Fatalf("uncontended start = %d, want 100", start)
	}
	if r.FreeAt() != 110 {
		t.Fatalf("FreeAt = %d, want 110", r.FreeAt())
	}
}

func TestResourceQueueing(t *testing.T) {
	var r Resource
	r.Acquire(0, 100)
	if start := r.Acquire(10, 5); start != 100 {
		t.Fatalf("queued start = %d, want 100", start)
	}
	busy, n, waited := r.Utilization()
	if busy != 105 || n != 2 || waited != 90 {
		t.Fatalf("utilization = (%d,%d,%d), want (105,2,90)", busy, n, waited)
	}
}

func TestResourceBackfill(t *testing.T) {
	var r Resource
	// A far-future reservation must not delay an earlier request that fits
	// in the gap before it (requests arrive out of time order because
	// simulated threads run ahead of one another).
	r.Acquire(1000, 50)
	if start := r.Acquire(10, 20); start != 10 {
		t.Fatalf("backfill start = %d, want 10", start)
	}
	// A request that does not fit in the gap queues after the reservation.
	if start := r.Acquire(990, 100); start != 1050 {
		t.Fatalf("non-fitting start = %d, want 1050", start)
	}
	if r.FreeAt() != 1150 {
		t.Fatalf("FreeAt = %d, want 1150", r.FreeAt())
	}
}

func TestResourceBlockMerges(t *testing.T) {
	var r Resource
	r.Acquire(100, 10)
	r.Acquire(200, 10)
	r.Block(105, 205) // overlaps both reservations: merges into [100,210)
	if start := r.Acquire(50, 10); start != 50 {
		t.Fatalf("gap before block: start = %d, want 50", start)
	}
	if start := r.Acquire(102, 1); start != 210 {
		t.Fatalf("inside block: start = %d, want 210", start)
	}
}

func TestResourceQueueDepth(t *testing.T) {
	var r Resource
	if d := r.QueueDepth(0); d != 0 {
		t.Fatalf("empty QueueDepth = %d, want 0", d)
	}
	r.Acquire(0, 100)  // [0,100)
	r.Acquire(200, 50) // [200,250)
	r.Acquire(400, 25) // [400,425)
	for _, tc := range []struct {
		at   Time
		want int
	}{
		{0, 3},   // all three intervals still end after t=0
		{99, 3},  // first interval ends at 100, still pending
		{100, 2}, // first drained exactly at its end
		{249, 2},
		{250, 1},
		{424, 1},
		{425, 0},
		{1000, 0},
	} {
		if d := r.QueueDepth(tc.at); d != tc.want {
			t.Errorf("QueueDepth(%d) = %d, want %d", tc.at, d, tc.want)
		}
	}
	// Abutting reservations merge into one busy episode.
	r.Acquire(250, 100) // extends [200,250) to [200,350)
	if d := r.QueueDepth(0); d != 3 {
		t.Errorf("QueueDepth(0) after merge = %d, want 3 (abutting windows coalesce)", d)
	}
}

// Property: for any sequence of (arrival time, hold), every service window
// starts at or after its arrival and no two service windows overlap.
func TestResourceNoOverlapProperty(t *testing.T) {
	type win struct{ s, e Time }
	f := func(arrivals []uint32, holds []uint16) bool {
		var r Resource
		var wins []win
		n := len(arrivals)
		if len(holds) < n {
			n = len(holds)
		}
		for i := 0; i < n; i++ {
			now := Time(arrivals[i] % 100000)
			hold := Time(holds[i]%500 + 1)
			start := r.Acquire(now, hold)
			if start < now {
				return false // started before arrival
			}
			wins = append(wins, win{start, start + hold})
		}
		for i := range wins {
			for j := i + 1; j < len(wins); j++ {
				if wins[i].s < wins[j].e && wins[j].s < wins[i].e {
					return false // overlap
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
