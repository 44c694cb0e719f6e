package main

import "testing"

// TestEffectiveSweepWorkers pins the oversubscription guard: the simulation
// budget is workers × sweep-workers (sweep-workers 0 = GOMAXPROCS), never
// more than GOMAXPROCS, and an explicit product above it is capped with a
// warning.
func TestEffectiveSweepWorkers(t *testing.T) {
	cases := []struct {
		workers, sweep, procs int
		want                  int
		warns                 bool
	}{
		{2, 0, 8, 8, false},  // automatic: every core
		{2, 0, 1, 1, false},  // 1-CPU host: one simulation at a time
		{3, 0, 8, 8, false},  // automatic leaves no core idle
		{2, 4, 8, 8, false},  // explicit exact fit is kept
		{2, 2, 8, 4, false},  // explicit underfit is kept
		{1, 1, 2, 1, false},  // the smoke tests' budget of 1
		{2, 8, 8, 8, true},   // explicit oversubscription capped
		{4, 16, 4, 4, true},  // heavy oversubscription capped
		{0, 0, 8, 8, false},  // degenerate workers treated as one job
		{0, 3, 8, 3, false},  // degenerate workers, explicit sweep
		{16, 1, 8, 8, true},  // workers alone > procs: capped at procs
		{3, 3, 8, 8, true},   // product 9 on 8 procs: capped to 8
		{2, 1, 2, 2, false},  // the benchmark's service: two slots
		{5, 1, 16, 5, false}, // one slot per worker fits
	}
	for _, c := range cases {
		got, warn := effectiveSweepWorkers(c.workers, c.sweep, c.procs)
		if got != c.want || (warn != "") != c.warns {
			t.Errorf("effectiveSweepWorkers(%d, %d, %d) = %d, %q; want %d, warn=%v",
				c.workers, c.sweep, c.procs, got, warn, c.want, c.warns)
		}
		if got > c.procs || got < 1 {
			t.Errorf("effectiveSweepWorkers(%d, %d, %d) = %d, outside [1, %d]",
				c.workers, c.sweep, c.procs, got, c.procs)
		}
	}
}
