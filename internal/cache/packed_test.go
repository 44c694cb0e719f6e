package cache

import (
	"math/rand"
	"testing"
	"unsafe"
)

// ownedHigh ranks owned lines above read-only copies, the way the machines'
// victim choice prefers to displace copies first.
func ownedHigh(s State) int {
	if s.Owned() {
		return 1
	}
	return 0
}

type line struct {
	addr   uint64
	state  State
	onChip bool
}

// randOp draws an address from a window four times the capacity (unaligned,
// to exercise Align), a valid state and a rank function.
func randOp(r *rand.Rand, lines, lineBytes uint64) (uint64, State, func(State) int) {
	addr := uint64(r.Int63n(int64(4*lines)))*lineBytes + uint64(r.Int63n(int64(lineBytes)))
	s := []State{Shared, SharedMaster, Dirty}[r.Intn(3)]
	var rank func(State) int
	if r.Intn(2) == 0 {
		rank = ownedHigh
	}
	return addr, s, rank
}

// TestSetAssocMatchesOracle drives the packed SetAssoc and the 24-byte-frame
// oracle with seeded random operation sequences and compares every return
// value (victims included), Count and the full ForEach sequence.
func TestSetAssocMatchesOracle(t *testing.T) {
	for _, g := range []struct {
		total, line uint64
		assoc       int
	}{{4096, 64, 4}, {2048, 64, 1}, {8192, 128, 8}, {1024, 8, 2}, {64 * 3, 64, 3}} {
		for seed := int64(1); seed <= 3; seed++ {
			r := rand.New(rand.NewSource(seed))
			c := MustNew(g.total, g.line, g.assoc)
			o, err := newOracle(g.total, g.line, g.assoc)
			if err != nil {
				t.Fatal(err)
			}
			for op := 0; op < 20000; op++ {
				addr, s, rank := randOp(r, c.Lines(), g.line)
				switch x := r.Intn(100); {
				case x < 20:
					gs, gh := c.Lookup(addr)
					ws, wh := o.Lookup(addr)
					if gs != ws || gh != wh {
						t.Fatalf("%+v op %d: Lookup(%#x) = %v,%v; oracle %v,%v", g, op, addr, gs, gh, ws, wh)
					}
				case x < 45:
					gs, gh := c.Access(addr)
					ws, wh := o.Access(addr)
					if gs != ws || gh != wh {
						t.Fatalf("%+v op %d: Access(%#x) = %v,%v; oracle %v,%v", g, op, addr, gs, gh, ws, wh)
					}
				case x < 55:
					if r.Intn(4) == 0 {
						s = Invalid
					}
					if got, want := c.SetState(addr, s), o.SetState(addr, s); got != want {
						t.Fatalf("%+v op %d: SetState(%#x, %v) = %v; oracle %v", g, op, addr, s, got, want)
					}
				case x < 62:
					if got, want := c.Invalidate(addr), o.Invalidate(addr); got != want {
						t.Fatalf("%+v op %d: Invalidate(%#x) = %v; oracle %v", g, op, addr, got, want)
					}
				case x < 99:
					if got, want := c.Insert(addr, s, rank), o.Insert(addr, s, rank); got != want {
						t.Fatalf("%+v op %d: Insert(%#x, %v) = %+v; oracle %+v", g, op, addr, s, got, want)
					}
				default:
					var got, want []line
					c.Flush(func(a uint64, s State) { got = append(got, line{a, s, false}) })
					o.Flush(func(a uint64, s State) { want = append(want, line{a, s, false}) })
					sameLines(t, "Flush", got, want)
				}
				if op%11 == 0 {
					if c.Count() != o.Count() {
						t.Fatalf("%+v op %d: Count = %d; oracle %d", g, op, c.Count(), o.Count())
					}
					var got, want []line
					c.ForEach(func(a uint64, s State) { got = append(got, line{a, s, false}) })
					o.ForEach(func(a uint64, s State) { want = append(want, line{a, s, false}) })
					sameLines(t, "ForEach", got, want)
				}
			}
		}
	}
}

// TestLocalMemoryMatchesOracle does the same for the packed LocalMemory
// against the 32-byte-lframe oracle, adding ProbeVictim and the on-chip
// placement each hit and ForEach reports.
func TestLocalMemoryMatchesOracle(t *testing.T) {
	for _, g := range []struct {
		total, line uint64
		assoc       int
		on          float64
	}{
		{4096, 64, 4, 0.5},
		{3 * 4 * 128, 128, 4, 0.25}, // three sets: modulo indexing
		{5 * 8 * 64, 64, 8, 0},
		{2048, 64, 4, 1},
		{1024, 8, 2, 0.3},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			r := rand.New(rand.NewSource(seed))
			m := MustNewLocal(g.total, g.line, g.assoc, g.on)
			o, err := newOracleLocal(g.total, g.line, g.assoc, g.on)
			if err != nil {
				t.Fatal(err)
			}
			for op := 0; op < 20000; op++ {
				addr, s, rank := randOp(r, m.Lines(), g.line)
				switch x := r.Intn(100); {
				case x < 15:
					gs, gh, gon := m.Lookup(addr)
					ws, wh, won := o.Lookup(addr)
					if gs != ws || gh != wh || gon != won {
						t.Fatalf("%+v op %d: Lookup(%#x) = %v,%v,%v; oracle %v,%v,%v", g, op, addr, gs, gh, gon, ws, wh, won)
					}
				case x < 40:
					gs, gh, gon := m.Access(addr)
					ws, wh, won := o.Access(addr)
					if gs != ws || gh != wh || gon != won {
						t.Fatalf("%+v op %d: Access(%#x) = %v,%v,%v; oracle %v,%v,%v", g, op, addr, gs, gh, gon, ws, wh, won)
					}
				case x < 48:
					if r.Intn(4) == 0 {
						s = Invalid
					}
					if got, want := m.SetState(addr, s), o.SetState(addr, s); got != want {
						t.Fatalf("%+v op %d: SetState(%#x, %v) = %v; oracle %v", g, op, addr, s, got, want)
					}
				case x < 55:
					if got, want := m.Invalidate(addr), o.Invalidate(addr); got != want {
						t.Fatalf("%+v op %d: Invalidate(%#x) = %v; oracle %v", g, op, addr, got, want)
					}
				case x < 65:
					if got, want := m.ProbeVictim(addr, rank), o.ProbeVictim(addr, rank); got != want {
						t.Fatalf("%+v op %d: ProbeVictim(%#x) = %+v; oracle %+v", g, op, addr, got, want)
					}
				case x < 99:
					if got, want := m.Insert(addr, s, rank), o.Insert(addr, s, rank); got != want {
						t.Fatalf("%+v op %d: Insert(%#x, %v) = %+v; oracle %+v", g, op, addr, s, got, want)
					}
				default:
					var got, want []line
					m.Flush(func(a uint64, s State) { got = append(got, line{a, s, false}) })
					o.Flush(func(a uint64, s State) { want = append(want, line{a, s, false}) })
					sameLines(t, "Flush", got, want)
				}
				if op%11 == 0 {
					if m.Count() != o.Count() {
						t.Fatalf("%+v op %d: Count = %d; oracle %d", g, op, m.Count(), o.Count())
					}
					var got, want []line
					m.ForEach(func(a uint64, s State, on bool) { got = append(got, line{a, s, on}) })
					o.ForEach(func(a uint64, s State, on bool) { want = append(want, line{a, s, on}) })
					sameLines(t, "ForEach", got, want)
				}
			}
		}
	}
}

func sameLines(t *testing.T, what string, got, want []line) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s yields %d lines; oracle %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s line %d = %+v; oracle %+v", what, i, got[i], want[i])
		}
	}
}

// TestFrameSize: a frame is two words, so a 4-way set fills exactly one
// 64-byte host cache line.
func TestFrameSize(t *testing.T) {
	if n := unsafe.Sizeof(frame{}); n != 16 {
		t.Fatalf("frame is %d bytes, want 16", n)
	}
}

// TestCacheZeroAlloc: hits, fills and evictions in both structures never
// allocate.
func TestCacheZeroAlloc(t *testing.T) {
	c := MustNew(1<<16, 64, 4)
	m := MustNewLocal(1<<16, 128, 4, 0.5)
	var i uint64
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"SetAssoc.Access", func() { c.Access(i % 2048 * 64); i++ }},
		{"SetAssoc.Insert", func() { c.Insert(i%4096*64, Dirty, ownedHigh); i++ }},
		{"LocalMemory.Access", func() { m.Access(i % 1024 * 128); i++ }},
		{"LocalMemory.Insert", func() { m.Insert(i%2048*128, Shared, ownedHigh); i++ }},
	} {
		if n := testing.AllocsPerRun(4096, tc.fn); n != 0 {
			t.Errorf("%s allocates %v times per call", tc.name, n)
		}
	}
}
