package cache

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestLocalNewValidation(t *testing.T) {
	if _, err := NewLocal(1024, 64, 4, -0.1); err == nil {
		t.Error("negative on-chip fraction accepted")
	}
	if _, err := NewLocal(1024, 64, 4, 1.5); err == nil {
		t.Error("on-chip fraction > 1 accepted")
	}
	// A line leaves its low three bits for the packed state and placement.
	for _, line := range []uint64{1, 2, 4} {
		if _, err := NewLocal(1024, line, 1, 0.5); err == nil {
			t.Errorf("%d-byte lines accepted", line)
		}
	}
	if _, err := NewLocal(1024, 8, 1, 0.5); err != nil {
		t.Errorf("8-byte lines rejected: %v", err)
	}
	// Non-power-of-two set counts are allowed (DRAM tag arrays index by
	// modulo): memory-pressure sizing relies on it.
	if m, err := NewLocal(64*3, 64, 1, 0.5); err != nil || m.Lines() != 3 {
		t.Errorf("3-set local memory rejected: %v", err)
	}
	if _, err := NewLocal(64*3, 64, 2, 0.5); err == nil {
		t.Error("capacity not a multiple of ways accepted")
	}
}

func TestLocalOnChipCapacity(t *testing.T) {
	m := MustNewLocal(16*128, 128, 4, 0.5) // 4 sets, 4 ways, 2 on-chip ways each
	if m.Lines() != 16 || m.OnChipLines() != 8 {
		t.Fatalf("Lines=%d OnChipLines=%d, want 16/8", m.Lines(), m.OnChipLines())
	}
	m = MustNewLocal(16*128, 128, 4, 0.1) // rounds to 0 but clamps to 1 way
	if m.OnChipLines() != 4 {
		t.Fatalf("clamped OnChipLines=%d, want 4", m.OnChipLines())
	}
	m = MustNewLocal(16*128, 128, 4, 1.0)
	if m.OnChipLines() != 16 {
		t.Fatalf("full on-chip OnChipLines=%d, want 16", m.OnChipLines())
	}
}

func TestLocalInsertGoesOnChip(t *testing.T) {
	m := MustNewLocal(4*128, 128, 4, 0.5) // 1 set, 2 on-chip ways
	m.Insert(0x000, Dirty, nil)
	if _, hit, on := m.Lookup(0x000); !hit || !on {
		t.Fatalf("freshly inserted line not on chip (hit=%v on=%v)", hit, on)
	}
}

func TestLocalPromotionOnAccess(t *testing.T) {
	m := MustNewLocal(4*128, 128, 4, 0.5) // 1 set, 2 on-chip ways
	// Fill the set; the first two inserted stay, later ones displace on-chip
	// residency of the LRU.
	for i := uint64(0); i < 4; i++ {
		m.Insert(i*128, Shared, nil)
	}
	// The set has 4 valid lines, exactly 2 on chip.
	on := 0
	m.ForEach(func(_ uint64, _ State, oc bool) {
		if oc {
			on++
		}
	})
	if on != 2 {
		t.Fatalf("on-chip lines = %d, want 2", on)
	}
	// Find an off-chip line; accessing it must serve off chip then promote.
	var offAddr uint64
	found := false
	m.ForEach(func(a uint64, _ State, oc bool) {
		if !oc && !found {
			offAddr, found = a, true
		}
	})
	if !found {
		t.Fatal("no off-chip line found")
	}
	if _, hit, servedOn := m.Access(offAddr); !hit || servedOn {
		t.Fatalf("off-chip access served on chip (hit=%v)", hit)
	}
	if _, _, nowOn := m.Lookup(offAddr); !nowOn {
		t.Fatal("line not promoted after off-chip access")
	}
	// On-chip count must be unchanged (exclusive swap).
	on = 0
	m.ForEach(func(_ uint64, _ State, oc bool) {
		if oc {
			on++
		}
	})
	if on != 2 {
		t.Fatalf("on-chip lines after promotion = %d, want 2", on)
	}
}

func TestLocalEvictionVictim(t *testing.T) {
	m := MustNewLocal(2*128, 128, 2, 1.0) // 1 set, 2 ways
	m.Insert(0x000, Dirty, nil)
	m.Insert(0x080, Shared, nil)
	m.Access(0x080)
	v := m.Insert(0x100, Shared, nil)
	if v.Addr != 0x000 || v.State != Dirty {
		t.Fatalf("victim = %+v, want 0x000/D", v)
	}
}

func TestLocalFlushWritesBackOwned(t *testing.T) {
	m := MustNewLocal(4*128, 128, 4, 0.5)
	m.Insert(0x000, Dirty, nil)
	m.Insert(0x080, Shared, nil)
	m.Insert(0x100, SharedMaster, nil)
	var owned []uint64
	m.Flush(func(a uint64, s State) {
		if s.Owned() {
			owned = append(owned, a)
		}
	})
	if len(owned) != 2 {
		t.Fatalf("owned flushed = %v, want dirty+shared-master", owned)
	}
	if m.Count() != 0 {
		t.Fatalf("Count after flush = %d", m.Count())
	}
}

// Property: the number of on-chip lines per set never exceeds the configured
// on-chip ways, and total valid lines never exceed capacity, under random
// insert/access/invalidate sequences.
func TestLocalOnChipInvariantProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		const assoc, sets, onWays = 4, 4, 2
		m := MustNewLocal(sets*assoc*128, 128, assoc, 0.5)
		rng := rand.New(rand.NewPCG(seed, 3))
		for i := 0; i < int(n)*4; i++ {
			addr := uint64(rng.IntN(64)) * 128
			switch rng.IntN(3) {
			case 0:
				m.Insert(addr, State(1+rng.IntN(3)), nil)
			case 1:
				m.Access(addr)
			case 2:
				m.Invalidate(addr)
			}
			// Count on-chip frames per set.
			perSet := map[uint64]int{}
			m.ForEach(func(a uint64, _ State, oc bool) {
				if oc {
					perSet[(a/128)%sets]++
				}
			})
			for _, c := range perSet {
				if c > onWays {
					return false
				}
			}
			if m.Count() > sets*assoc {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
