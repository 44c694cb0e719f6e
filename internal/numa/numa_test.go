package numa

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"pimdsm/internal/proto"
	"pimdsm/internal/sim"
)

func testMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := New(DefaultConfig(4, 64*1024, 1024, 4096))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFirstTouchPlacesPageLocally(t *testing.T) {
	m := testMachine(t)
	_, class := m.Access(0, 2, 0x10000, false)
	if class != proto.LatMem {
		t.Fatalf("first touch class = %v, want Memory (local first-touch page)", class)
	}
	if pg, _ := m.dir.Lookup(0x10000); pg.Home != 2 {
		t.Fatal("page not homed at first toucher")
	}
}

func TestRemoteReadIsTwoHop(t *testing.T) {
	m := testMachine(t)
	t1, _ := m.Access(0, 0, 0x1000, false) // homed at 0
	_, class := m.Access(t1, 1, 0x1000, false)
	if class != proto.Lat2Hop {
		t.Fatalf("remote clean read class = %v, want 2Hop", class)
	}
	// NUMA cannot cache remote lines in local memory: after the SRAM caches
	// lose the line, the next access is remote again (the paper's key
	// NUMA weakness).
	m.Caches[1].Flush(nil)
	_, class = m.Access(t1+10000, 1, 0x1000, false)
	if class != proto.Lat2Hop {
		t.Fatalf("post-flush remote read class = %v, want 2Hop again", class)
	}
}

func TestRemoteDirtyReadIsThreeHop(t *testing.T) {
	m := testMachine(t)
	t1, _ := m.Access(0, 0, 0x2000, true)  // P0 homes and owns
	t2, _ := m.Access(t1, 1, 0x2080, true) // P1 dirties a line homed at 0
	if pg, ok := m.dir.Lookup(0x2080); !ok || pg.Home != 0 {
		t.Fatal("test setup: page not homed at 0")
	}
	_, class := m.Access(t2, 2, 0x2080, false) // P2 reads P1's dirty line
	if class != proto.Lat3Hop {
		t.Fatalf("remote dirty read class = %v, want 3Hop", class)
	}
	// Owner was downgraded; its copy survives as shared.
	if hit, _, up := m.Caches[1].Lookup(0x2080, true); hit || !up {
		t.Fatalf("owner not downgraded: hit=%v upgrade=%v", hit, up)
	}
}

func TestHomeOwnedDirtyReadIsTwoHop(t *testing.T) {
	m := testMachine(t)
	t1, _ := m.Access(0, 0, 0x3000, true)
	_, class := m.Access(t1, 1, 0x3000, false)
	if class != proto.Lat2Hop {
		t.Fatalf("read of home-owned dirty line = %v, want 2Hop", class)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	m := testMachine(t)
	t1, _ := m.Access(0, 0, 0x4000, false)
	t2, _ := m.Access(t1, 1, 0x4000, false)
	t3, _ := m.Access(t2, 2, 0x4000, false)
	before := m.Stats().Invalidations
	_, _ = m.Access(t3, 1, 0x4000, true) // upgrade; invalidates 0 and 2
	if got := m.Stats().Invalidations - before; got != 2 {
		t.Fatalf("invalidations = %d, want 2", got)
	}
	if m.Stats().Upgrades != 1 {
		t.Fatalf("upgrades = %d, want 1", m.Stats().Upgrades)
	}
	for _, q := range []int{0, 2} {
		if m.Caches[q].Holds(0x4000) {
			t.Fatalf("sharer %d still holds the line", q)
		}
	}
}

func TestLocalWriteAfterRemoteSharing(t *testing.T) {
	m := testMachine(t)
	t1, _ := m.Access(0, 0, 0x5000, false)  // home read
	t2, _ := m.Access(t1, 3, 0x5000, false) // remote sharer
	done, class := m.Access(t2, 0, 0x5000, true)
	if class != proto.LatMem {
		t.Fatalf("home write class = %v, want Memory", class)
	}
	if done <= t2 {
		t.Fatal("no time elapsed")
	}
	if m.Caches[3].Holds(0x5000) {
		t.Fatal("remote sharer survived home write")
	}
}

func TestDirtyL2EvictionWritesBackRemote(t *testing.T) {
	// Tiny caches force evictions quickly.
	cfg := DefaultConfig(2, 64*1024, 128, 256)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Home all pages at node 0, then let node 1 dirty lines mapping to the
	// same (single) L2 set until it evicts.
	now, _ := m.Access(0, 0, 0x0, false)
	wb0 := m.Stats().WriteBacks
	for i := uint64(0); i < 4; i++ {
		now, _ = m.Access(now, 1, i*128, true)
	}
	if m.Stats().WriteBacks <= wb0 {
		t.Fatalf("no write-backs after dirty evictions (got %d)", m.Stats().WriteBacks)
	}
}

func TestOnChipLatencyDifference(t *testing.T) {
	// One node, no sharing: repeated local misses to distinct lines.
	cfg := DefaultConfig(1, 1<<20, 128, 256) // tiny SRAM caches
	cfg.OnChipBytes = 4 * 128 * 4            // 16 lines on chip
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Touch a line, flush SRAM, re-touch: should be on-chip (37 cycles).
	t1, _ := m.Access(0, 0, 0x0, false)
	m.Caches[0].Flush(nil)
	t2, class := m.Access(t1, 0, 0x0, false)
	if class != proto.LatMem {
		t.Fatalf("class = %v", class)
	}
	if lat := t2 - t1; lat != 37 {
		t.Fatalf("hot local line latency = %d, want 37 (on-chip)", lat)
	}
}

// Property: random traffic keeps completion times monotonic and never
// panics; every load that hits a dirty remote line is 2 or 3 hops.
func TestNUMARandomProperty(t *testing.T) {
	f := func(seed uint64, steps uint8) bool {
		m, err := New(DefaultConfig(4, 64*1024, 512, 1024))
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewPCG(seed, 5))
		clocks := make([]sim.Time, 4)
		for i := 0; i < 60+int(steps); i++ {
			p := rng.IntN(4)
			addr := uint64(rng.IntN(64)) * 128
			write := rng.IntN(3) == 0
			done, _ := m.Access(clocks[p], p, addr, write)
			if done < clocks[p] {
				return false
			}
			for q := range clocks {
				if clocks[q] < done {
					clocks[q] = done
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
