package coma

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"pimdsm/internal/cache"
	"pimdsm/internal/frame"
	"pimdsm/internal/proto"
	"pimdsm/internal/sim"
)

func testMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := New(DefaultConfig(4, 8192, 1024, 4096)) // 64-line AMs
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFirstTouchBecomesMaster(t *testing.T) {
	m := testMachine(t)
	_, class := m.Access(0, 1, 0x1000, false)
	if class != proto.LatMem {
		t.Fatalf("first-touch read class = %v, want Memory (home==supplier==self)", class)
	}
	st, hit, _ := m.AMOf(1).Lookup(0x1000)
	if !hit || st != cache.SharedMaster {
		t.Fatalf("AM state = %v/%v, want SharedMaster", st, hit)
	}
}

func TestDataMigratesToReader(t *testing.T) {
	m := testMachine(t)
	t1, _ := m.Access(0, 0, 0x2000, true)       // P0 dirties (home 0, master 0)
	t2, class := m.Access(t1, 1, 0x2000, false) // P1 reads: 2 hops (home==master==0)
	if class != proto.Lat2Hop {
		t.Fatalf("read of remote dirty = %v, want 2Hop", class)
	}
	// The line is now in P1's attraction memory: subsequent accesses after
	// SRAM flush are local — COMA's key property.
	m.Caches[1].Flush(nil)
	_, class = m.Access(t2, 1, 0x2000, false)
	if class != proto.LatMem {
		t.Fatalf("post-migration read class = %v, want Memory", class)
	}
	// Previous owner was downgraded but kept mastership.
	st, _, _ := m.AMOf(0).Lookup(0x2000)
	if st != cache.SharedMaster {
		t.Fatalf("old owner AM state = %v, want SharedMaster", st)
	}
}

func TestThirdNodeReadIsThreeHop(t *testing.T) {
	m := testMachine(t)
	t1, _ := m.Access(0, 0, 0x3000, true)  // home 0, master 0
	t2, _ := m.Access(t1, 1, 0x3000, true) // master moves to 1 (dirty)
	_, class := m.Access(t2, 2, 0x3000, false)
	if class != proto.Lat3Hop {
		t.Fatalf("read via home to third-node master = %v, want 3Hop", class)
	}
}

func TestWriteInvalidatesAllCopies(t *testing.T) {
	m := testMachine(t)
	t1, _ := m.Access(0, 0, 0x4000, false)
	t2, _ := m.Access(t1, 1, 0x4000, false)
	t3, _ := m.Access(t2, 2, 0x4000, false)
	before := m.Stats().Invalidations
	_, _ = m.Access(t3, 3, 0x4000, true)
	if got := m.Stats().Invalidations - before; got != 3 {
		t.Fatalf("invalidations = %d, want 3", got)
	}
	for q := 0; q < 3; q++ {
		if _, hit, _ := m.AMOf(q).Lookup(0x4000); hit {
			t.Fatalf("node %d still holds an invalidated line", q)
		}
	}
	st, _, _ := m.AMOf(3).Lookup(0x4000)
	if st != cache.Dirty {
		t.Fatalf("writer AM state = %v, want Dirty", st)
	}
}

func TestUpgradeFromSharedCopy(t *testing.T) {
	m := testMachine(t)
	t1, _ := m.Access(0, 0, 0x5000, false)  // master at 0
	t2, _ := m.Access(t1, 1, 0x5000, false) // shared copy at 1
	_, _ = m.Access(t2, 1, 0x5000, true)    // upgrade in place
	if m.Stats().Upgrades != 1 {
		t.Fatalf("upgrades = %d, want 1", m.Stats().Upgrades)
	}
	st, _, _ := m.AMOf(1).Lookup(0x5000)
	if st != cache.Dirty {
		t.Fatalf("upgrader AM state = %v, want Dirty", st)
	}
	if _, hit, _ := m.AMOf(0).Lookup(0x5000); hit {
		t.Fatal("old master survived the upgrade")
	}
}

func TestMasterDisplacementInjects(t *testing.T) {
	// 2 nodes with tiny AMs: 4 lines, 4-way => a single set.
	cfg := DefaultConfig(2, 512, 256, 512)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 writes 5 distinct lines: the 5th insert displaces a dirty
	// master, which must be injected into node 1's attraction memory.
	now := sim.Time(0)
	for i := uint64(0); i < 5; i++ {
		now, _ = m.Access(now, 0, i*128, true)
	}
	if m.Stats().Injections == 0 {
		t.Fatal("no injection after displacing a dirty master")
	}
	// The injected line (LRU victim: line 0) now lives at node 1.
	st, hit, _ := m.AMOf(1).Lookup(0)
	if !hit || st != cache.Dirty {
		t.Fatalf("injected line at node 1: %v/%v, want Dirty", st, hit)
	}
	// And node 1 is its master: node 0 re-reading it goes remote.
	_, class := m.Access(now, 0, 0, false)
	if class == proto.LatMem {
		t.Fatal("re-read of injected line was local")
	}
}

func TestInjectionOverflowSwapsToDisk(t *testing.T) {
	// Both nodes' AMs are a single 4-line set; fill the machine with dirty
	// masters so injection cascades fail and lines swap to disk.
	cfg := DefaultConfig(2, 512, 256, 512)
	cfg.MaxInjectHops = 3
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Time(0)
	for i := uint64(0); i < 16; i++ {
		now, _ = m.Access(now, int(i%2), i*128, true)
	}
	if m.Stats().Overflows == 0 {
		t.Fatal("no overflow despite every frame holding a master")
	}
	// A swapped line can be faulted back in.
	var swapped uint64
	found := false
	forEachLine(m, func(l uint64, e *dirEntry) bool {
		if e.state == dirSwapped {
			swapped, found = l, true
			return false
		}
		return true
	})
	if !found {
		t.Fatal("no swapped line recorded")
	}
	before := m.Stats().DiskFaults
	now, _ = m.Access(now, 0, swapped, false)
	if m.Stats().DiskFaults != before+1 {
		t.Fatalf("disk faults = %d, want %d", m.Stats().DiskFaults, before+1)
	}
	_ = now
}

// Property: exactly one master exists for every non-swapped fetched line
// (ground truth across attraction memories), under random traffic.
func TestCOMASingleMasterProperty(t *testing.T) {
	f := func(seed uint64, steps uint8) bool {
		m, err := New(DefaultConfig(3, 2048, 512, 1024))
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewPCG(seed, 7))
		clocks := make([]sim.Time, 3)
		for i := 0; i < 50+int(steps); i++ {
			p := rng.IntN(3)
			addr := uint64(rng.IntN(40)) * 128
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
		masters := map[uint64]int{}
		for n := 0; n < 3; n++ {
			m.AMOf(n).ForEach(func(a uint64, s cache.State, _ bool) {
				if s.Owned() {
					masters[a]++
				}
			})
		}
		ok := true
		forEachLine(m, func(line uint64, e *dirEntry) bool {
			switch e.state {
			case dirShared, dirDirty:
				if masters[line] != 1 {
					t.Logf("line %#x in %v has %d masters", line, e.state, masters[line])
					ok = false
					return false
				}
			case dirSwapped, dirUnfetched:
				if masters[line] != 0 {
					t.Logf("line %#x in %v has %d masters", line, e.state, masters[line])
					ok = false
					return false
				}
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// forEachLine calls fn for every directory entry of every touched page until
// fn returns false.
func forEachLine(m *Machine, fn func(line uint64, e *dirEntry) bool) {
	m.dir.Range(func(page uint64, pg frame.Page[dirEntry]) bool {
		for i := range pg.Lines {
			if !fn(page+uint64(i)*m.cfg.LineBytes, &pg.Lines[i]) {
				return false
			}
		}
		return true
	})
}
