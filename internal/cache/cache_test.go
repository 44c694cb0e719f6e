package cache

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		total, line uint64
		assoc       int
	}{
		{0, 64, 1},       // zero capacity
		{1024, 65, 1},    // non-power-of-two line
		{1024, 0, 1},     // zero line
		{1024, 4, 1},     // line too short for the packed flag bits
		{1024, 64, 0},    // zero assoc
		{1024, 64, -2},   // negative assoc
		{64 * 3, 64, 1},  // non-power-of-two sets
		{64 * 10, 64, 4}, // lines not multiple of assoc
	}
	for _, c := range cases {
		if _, err := New(c.total, c.line, c.assoc); err == nil {
			t.Errorf("New(%d,%d,%d): expected error", c.total, c.line, c.assoc)
		}
	}
	if _, err := New(64*1024, 64, 4); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
}

func TestInsertLookupAccess(t *testing.T) {
	c := MustNew(4*64, 64, 4) // one set, 4 ways
	if _, hit := c.Lookup(0x100); hit {
		t.Fatal("hit in empty cache")
	}
	if v := c.Insert(0x100, Shared, nil); v.Valid() {
		t.Fatalf("insert into empty set produced victim %+v", v)
	}
	if s, hit := c.Lookup(0x100); !hit || s != Shared {
		t.Fatalf("Lookup = (%v,%v), want (S,true)", s, hit)
	}
	// Same line, different byte offset.
	if s, hit := c.Access(0x13f); !hit || s != Shared {
		t.Fatalf("offset Access = (%v,%v), want (S,true)", s, hit)
	}
	// Adjacent line misses.
	if _, hit := c.Lookup(0x140); hit {
		t.Fatal("adjacent line hit")
	}
}

func TestLRUEviction(t *testing.T) {
	c := MustNew(2*64, 64, 2) // one set, 2 ways
	c.Insert(0x000, Shared, nil)
	c.Insert(0x040, Shared, nil)
	c.Access(0x000) // 0x040 is now LRU
	v := c.Insert(0x080, Dirty, nil)
	if !v.Valid() || v.Addr != 0x040 || v.State != Shared {
		t.Fatalf("victim = %+v, want 0x040/S", v)
	}
	if _, hit := c.Lookup(0x000); !hit {
		t.Fatal("MRU line was evicted")
	}
}

func TestInsertPrefersInvalid(t *testing.T) {
	c := MustNew(2*64, 64, 2)
	c.Insert(0x000, Dirty, nil)
	c.Insert(0x040, Shared, nil)
	c.Invalidate(0x000)
	if v := c.Insert(0x080, Shared, nil); v.Valid() {
		t.Fatalf("insert with invalid frame available produced victim %+v", v)
	}
	if _, hit := c.Lookup(0x040); !hit {
		t.Fatal("valid line displaced despite free frame")
	}
}

func TestInsertRank(t *testing.T) {
	// COMA-style ranking: replace non-master shared before masters.
	rank := func(s State) int {
		switch s {
		case Shared:
			return 0
		case SharedMaster:
			return 1
		default:
			return 2
		}
	}
	c := MustNew(3*64, 64, 3)
	c.Insert(0x000, Dirty, nil)
	c.Insert(0x040, SharedMaster, nil)
	c.Insert(0x080, Shared, nil)
	c.Access(0x000)
	c.Access(0x040)
	c.Access(0x080) // Shared line is MRU, but rank should override
	v := c.Insert(0x0c0, Dirty, rank)
	if v.Addr != 0x080 || v.State != Shared {
		t.Fatalf("victim = %+v, want the Shared line despite MRU", v)
	}
}

func TestReinsertUpdatesInPlace(t *testing.T) {
	c := MustNew(2*64, 64, 2)
	c.Insert(0x000, Shared, nil)
	c.Insert(0x040, Shared, nil)
	if v := c.Insert(0x000, Dirty, nil); v.Valid() {
		t.Fatalf("reinsert produced victim %+v", v)
	}
	if s, _ := c.Lookup(0x000); s != Dirty {
		t.Fatalf("state after reinsert = %v, want D", s)
	}
	if c.Count() != 2 {
		t.Fatalf("Count = %d, want 2", c.Count())
	}
}

func TestSetStateAndInvalidate(t *testing.T) {
	c := MustNew(64, 64, 1)
	if c.SetState(0x0, Dirty) {
		t.Fatal("SetState on absent line returned true")
	}
	c.Insert(0x0, Shared, nil)
	if !c.SetState(0x0, SharedMaster) {
		t.Fatal("SetState on present line returned false")
	}
	if s := c.Invalidate(0x0); s != SharedMaster {
		t.Fatalf("Invalidate returned %v, want M*", s)
	}
	if s := c.Invalidate(0x0); s != Invalid {
		t.Fatalf("double Invalidate returned %v, want I", s)
	}
}

func TestFlushAndForEach(t *testing.T) {
	c := MustNew(4*64, 64, 2)
	c.Insert(0x000, Dirty, nil)
	c.Insert(0x040, Shared, nil)
	c.Insert(0x080, SharedMaster, nil)
	seen := map[uint64]State{}
	c.ForEach(func(a uint64, s State) { seen[a] = s })
	if len(seen) != 3 || seen[0x000] != Dirty || seen[0x080] != SharedMaster {
		t.Fatalf("ForEach saw %v", seen)
	}
	flushed := 0
	c.Flush(func(a uint64, s State) { flushed++ })
	if flushed != 3 || c.Count() != 0 {
		t.Fatalf("flushed %d lines, %d remain", flushed, c.Count())
	}
}

// Property: a cache never holds two frames with the same line address, and
// Count never exceeds capacity, under random operation sequences.
func TestNoDuplicateLinesProperty(t *testing.T) {
	f := func(seed uint64, opsRaw []byte) bool {
		c := MustNew(8*64, 64, 2) // 4 sets, 2 ways
		rng := rand.New(rand.NewPCG(seed, 17))
		for _, b := range opsRaw {
			addr := uint64(b%32) * 64 // 32 distinct lines over 8 frames
			switch rng.IntN(4) {
			case 0:
				c.Insert(addr, Shared, nil)
			case 1:
				c.Insert(addr, Dirty, nil)
			case 2:
				c.Access(addr)
			case 3:
				c.Invalidate(addr)
			}
			seen := map[uint64]int{}
			c.ForEach(func(a uint64, _ State) { seen[a]++ })
			for _, n := range seen {
				if n > 1 {
					return false
				}
			}
			if c.Count() > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: inclusion of inserted line — immediately after Insert(addr),
// Lookup(addr) hits with the inserted state.
func TestInsertThenLookupProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := MustNew(16*128, 128, 4)
		for i, a := range addrs {
			st := Shared
			if i%2 == 0 {
				st = Dirty
			}
			c.Insert(uint64(a), st, nil)
			got, hit := c.Lookup(uint64(a))
			if !hit || got != st {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
