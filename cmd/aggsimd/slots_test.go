package main

import "testing"

// TestEffectiveSlots pins the oversubscription guard: the simulation budget
// is -slots (0 = GOMAXPROCS), never more than GOMAXPROCS, and an explicit
// value above it is capped with a warning.
func TestEffectiveSlots(t *testing.T) {
	cases := []struct {
		slots, procs int
		want         int
		warns        bool
	}{
		{0, 8, 8, false},  // automatic: every core
		{0, 1, 1, false},  // 1-CPU host: one simulation at a time
		{-3, 8, 8, false}, // a negative value is automatic too
		{8, 8, 8, false},  // explicit exact fit is kept
		{4, 8, 4, false},  // explicit underfit is kept
		{1, 2, 1, false},  // the smoke tests' budget of 1
		{2, 2, 2, false},  // the benchmark's service: two slots
		{16, 8, 8, true},  // explicit oversubscription capped
		{64, 4, 4, true},  // heavy oversubscription capped
		{9, 8, 8, true},   // one over: capped to 8
		{5, 16, 5, false}, // a small budget on a big host fits
	}
	for _, c := range cases {
		got, warn := effectiveSlots(c.slots, c.procs)
		if got != c.want || (warn != "") != c.warns {
			t.Errorf("effectiveSlots(%d, %d) = %d, %q; want %d, warn=%v",
				c.slots, c.procs, got, warn, c.want, c.warns)
		}
		if got > c.procs || got < 1 {
			t.Errorf("effectiveSlots(%d, %d) = %d, outside [1, %d]", c.slots, c.procs, got, c.procs)
		}
	}
}
