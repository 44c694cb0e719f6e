package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"pimdsm/internal/cache"
	"pimdsm/internal/proto"
	"pimdsm/internal/sim"
)

// testMachine builds a small AGG machine: 2 P-nodes, 2 D-nodes, 4 KB P-node
// memories (32 lines, 4-way), 64 Data slots per D-node, 512 B pages.
func testMachine(t *testing.T) *Machine {
	t.Helper()
	cfg := DefaultConfig(2, 2, 4096, 64, 1024, 4096)
	cfg.PageBytes = 512
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// homeOf returns the home D-node of a touched page.
func homeOf(m *Machine, page uint64) int {
	h, _ := m.homes.Get(page)
	return h.d
}

func TestPlacementSpreadsDNodes(t *testing.T) {
	p, d := Placement(64, 32, 32)
	if len(p) != 32 || len(d) != 32 {
		t.Fatalf("placement sizes %d/%d", len(p), len(d))
	}
	seen := map[int]bool{}
	for _, i := range append(append([]int{}, p...), d...) {
		if seen[i] || i < 0 || i >= 64 {
			t.Fatalf("bad mesh index %d", i)
		}
		seen[i] = true
	}
	// 1/1 ratio should alternate roughly every other slot.
	if d[1]-d[0] != 2 {
		t.Fatalf("1/1 D-node stride = %d, want 2", d[1]-d[0])
	}
	// Uneven ratios still produce unique, in-range indices.
	p, d = Placement(40, 32, 8)
	if len(p) != 32 || len(d) != 8 {
		t.Fatalf("1/4 placement sizes %d/%d", len(p), len(d))
	}
}

func TestFirstWriteIsTwoHopDirty(t *testing.T) {
	m := testMachine(t)
	done, class := m.Access(0, 0, 0x1000, true)
	if class != proto.Lat2Hop {
		t.Fatalf("first write class = %v, want 2Hop", class)
	}
	if done <= 0 {
		t.Fatal("no time elapsed")
	}
	st, hit, _ := m.PMemOf(0).Lookup(0x1000)
	if !hit || st != cache.Dirty {
		t.Fatalf("writer's memory state = %v/%v, want Dirty", st, hit)
	}
	d := homeOf(m, m.PageOf(0x1000))
	e := m.DMemOf(d).Entry(0x1000)
	if e.State != DirDirty || e.Master != 0 {
		t.Fatalf("directory = %v/master=%d, want Dirty/0", e.State, e.Master)
	}
	// Dirty-in-P lines must not consume a home Data slot (§2.2.2).
	if e.HasCopy() {
		t.Fatal("home kept a place holder for a dirty line")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFirstReadGrantsMastership(t *testing.T) {
	m := testMachine(t)
	_, class := m.Access(0, 0, 0x2000, false)
	if class != proto.Lat2Hop {
		t.Fatalf("first read class = %v, want 2Hop", class)
	}
	st, hit, _ := m.PMemOf(0).Lookup(0x2000)
	if !hit || st != cache.SharedMaster {
		t.Fatalf("reader's state = %v/%v, want SharedMaster", st, hit)
	}
	d := homeOf(m, m.PageOf(0x2000))
	dm := m.DMemOf(d)
	e := dm.Entry(0x2000)
	if e.State != DirShared || e.Master != 0 || !e.HasCopy() {
		t.Fatalf("directory = %+v", e)
	}
	// The home's copy is on the SharedList (droppable).
	if dm.SharedLen() != 1 {
		t.Fatalf("SharedLen = %d, want 1", dm.SharedLen())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReadOfDirtyLineIsThreeHop(t *testing.T) {
	m := testMachine(t)
	wDone, _ := m.Access(0, 0, 0x3000, true)
	done, class := m.Access(wDone, 1, 0x3000, false)
	if class != proto.Lat3Hop {
		t.Fatalf("read of remote-dirty class = %v, want 3Hop", class)
	}
	if done <= wDone {
		t.Fatal("3-hop read took no time")
	}
	// Owner downgraded to shared-master; home still has no copy.
	st, _, _ := m.PMemOf(0).Lookup(0x3000)
	if st != cache.SharedMaster {
		t.Fatalf("previous owner state = %v, want SharedMaster", st)
	}
	st, _, _ = m.PMemOf(1).Lookup(0x3000)
	if st != cache.Shared {
		t.Fatalf("reader state = %v, want Shared", st)
	}
	d := homeOf(m, m.PageOf(0x3000))
	dm := m.DMemOf(d)
	e := dm.Entry(0x3000)
	if e.State != DirShared || e.Master != 0 {
		t.Fatalf("directory = %+v", e)
	}
	// The sharing write-back gave the home an up-to-date droppable copy.
	if !e.HasCopy() || dm.SharedLen() != 1 {
		t.Fatalf("home copy after sharing write-back: hasCopy=%v sharedLen=%d", e.HasCopy(), dm.SharedLen())
	}
	// A third read now comes from the home in 2 hops.
	m.Caches[1].Flush(nil)
	m.PMemOf(1).Invalidate(0x3000)
	_, class = m.Access(done, 1, 0x3000, false)
	if class != proto.Lat2Hop {
		t.Fatalf("post-sharing-WB read class = %v, want 2Hop", class)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	m := testMachine(t)
	t1, _ := m.Access(0, 0, 0x4000, false)  // P0 shared-master
	t2, _ := m.Access(t1, 1, 0x4000, false) // P1 shared (2-hop from home copy)
	before := m.Stats().Invalidations
	done, _ := m.Access(t2, 1, 0x4000, true) // P1 upgrades
	if m.Stats().Invalidations != before+1 {
		t.Fatalf("invalidations = %d, want %d", m.Stats().Invalidations, before+1)
	}
	if m.Stats().Upgrades != 1 {
		t.Fatalf("upgrades = %d, want 1", m.Stats().Upgrades)
	}
	// P0's copy is gone; P1 owns.
	if st := m.PMemOf(0).Invalidate(0x4000); st != cache.Invalid {
		t.Fatalf("P0 still held %v", st)
	}
	st, _, _ := m.PMemOf(1).Lookup(0x4000)
	if st != cache.Dirty {
		t.Fatalf("P1 state = %v, want Dirty", st)
	}
	d := homeOf(m, m.PageOf(0x4000))
	e := m.DMemOf(d).Entry(0x4000)
	if e.State != DirDirty || e.Master != 1 || e.HasCopy() {
		t.Fatalf("directory = %+v", e)
	}
	_ = done
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSecondReadComesFromHomeCopy(t *testing.T) {
	m := testMachine(t)
	t1, _ := m.Access(0, 0, 0x5000, false)
	_, class := m.Access(t1, 1, 0x5000, false)
	if class != proto.Lat2Hop {
		t.Fatalf("second reader class = %v, want 2Hop (home kept a copy)", class)
	}
	st, _, _ := m.PMemOf(1).Lookup(0x5000)
	if st != cache.Shared {
		t.Fatalf("second reader state = %v, want Shared (non-master)", st)
	}
}

func TestLocalMemoryHitAfterFetch(t *testing.T) {
	m := testMachine(t)
	t1, _ := m.Access(0, 0, 0x6000, false)
	// Hit in L1 right away.
	t2, class := m.Access(t1, 0, 0x6000, false)
	if class != proto.LatL1 || t2 != t1+3 {
		t.Fatalf("L1 hit: class=%v lat=%d", class, t2-t1)
	}
	// A different word of the same memory line misses L1 but hits L2
	// (the whole 128B line was brought into L2).
	_, class = m.Access(t2, 0, 0x6000+64, false)
	if class != proto.LatL2 {
		t.Fatalf("sibling subline class = %v, want L2", class)
	}
}

func TestLocalMemoryServesEvictedCacheLines(t *testing.T) {
	m := testMachine(t)
	// Touch enough distinct lines to overflow L1+L2 but stay within the
	// 32-line local memory. L2 = 4KB = 64 SRAM lines = 32 memory lines; use
	// lines mapping to the same L2 set... simpler: re-access after flushing
	// the SRAM caches directly.
	t1, _ := m.Access(0, 0, 0x7000, false)
	m.Caches[0].Flush(nil)
	_, class := m.Access(t1, 0, 0x7000, false)
	if class != proto.LatMem {
		t.Fatalf("post-SRAM-flush class = %v, want Memory", class)
	}
}

func TestDirtyEvictionWritesBackAndHomeAccepts(t *testing.T) {
	m := testMachine(t)
	// P-node memory: 32 lines, 4-way, 8 sets. Writing 5 lines that map to
	// the same set (stride = 8 lines * 128B = 1KB) forces one eviction.
	now := sim.Time(0)
	for i := uint64(0); i < 5; i++ {
		now, _ = m.Access(now, 0, i*1024, true)
	}
	if m.Stats().WriteBacks != 1 {
		t.Fatalf("write-backs = %d, want 1", m.Stats().WriteBacks)
	}
	// The LRU victim (line 0) is now home-only with a Data slot.
	d := homeOf(m, m.PageOf(0))
	e := m.DMemOf(d).Entry(0)
	if e.State != DirHome || !e.HasCopy() || e.Master != HomeMaster {
		t.Fatalf("written-back line directory = %+v", e)
	}
	// And its sublines are out of P0's SRAM caches.
	if m.Caches[0].Holds(0) {
		t.Fatal("evicted line still in SRAM caches")
	}
	// Re-reading it is a 2-hop home fetch.
	_, class := m.Access(now, 0, 0, false)
	if class != proto.Lat2Hop {
		t.Fatalf("re-read class = %v, want 2Hop", class)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDirRoomPageout(t *testing.T) {
	cfg := DefaultConfig(2, 1, 4096, 8, 1024, 4096)
	cfg.PageBytes = 512 // 4 lines/page; dir capacity = 12 entries = 3 pages
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Time(0)
	// Touch one line in each of 3 pages: directory full.
	for pg := uint64(0); pg < 3; pg++ {
		now, _ = m.Access(now, 0, pg*512, false)
	}
	if m.Stats().Pageouts != 0 {
		t.Fatalf("premature pageouts: %d", m.Stats().Pageouts)
	}
	// A 4th page forces the D-node to page out.
	now, _ = m.Access(now, 0, 3*512, false)
	if m.Stats().Pageouts == 0 {
		t.Fatal("no pageout despite directory pressure")
	}
	// The paged-out page's line must be gone from P0 (recalled/invalidated).
	dm := m.DMemOf(0)
	pagedOut := uint64(0xffffffff)
	for pg := uint64(0); pg < 3; pg++ {
		if !dm.PageMapped(pg * 512) {
			pagedOut = pg * 512
		}
	}
	if pagedOut == 0xffffffff {
		t.Fatal("no page was unmapped")
	}
	if st, hit, _ := m.PMemOf(0).Lookup(pagedOut); hit {
		t.Fatalf("P0 still holds paged-out line in state %v", st)
	}
	// Touching the paged-out page again faults it in from disk.
	before := m.Stats().DiskFaults
	now, _ = m.Access(now, 0, pagedOut, false)
	if m.Stats().DiskFaults != before+1 {
		t.Fatalf("disk faults = %d, want %d", m.Stats().DiskFaults, before+1)
	}
	_ = now
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCensusCountsStates(t *testing.T) {
	m := testMachine(t)
	t1, _ := m.Access(0, 0, 0x100, true)   // dirty in P0
	t2, _ := m.Access(t1, 1, 0x800, false) // shared (master at P1, home copy)
	_, _ = m.Access(t2, 0, 0x800, false)   // second sharer
	c := m.CensusTotal()
	if c.DirtyInP != 1 || c.SharedInP != 1 {
		t.Fatalf("census = %+v", c)
	}
}

// Property: under random accesses by both P-nodes, the machine invariants
// hold, completion times never precede issue times, and the directory's
// dirty count matches the ground truth in P-node memories.
func TestAGGRandomAccessProperty(t *testing.T) {
	f := func(seed uint64, steps uint8) bool {
		cfg := DefaultConfig(2, 2, 2048, 16, 512, 1024)
		cfg.PageBytes = 512
		m, err := New(cfg)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewPCG(seed, 1))
		clock := [2]sim.Time{}
		for i := 0; i < 40+int(steps); i++ {
			p := rng.IntN(2)
			addr := uint64(rng.IntN(48)) * 128 // 6 pages of footprint
			write := rng.IntN(3) == 0
			done, _ := m.Access(clock[p], p, addr, write)
			if done < clock[p] {
				t.Logf("time went backwards: %d -> %d", clock[p], done)
				return false
			}
			clock[p] = done
			// Advance the other clock too so the global order stays sane.
			if clock[1-p] < done {
				clock[1-p] = done
			}
		}
		if err := m.CheckInvariants(); err != nil {
			t.Logf("invariants: %v", err)
			return false
		}
		// Dirty ground truth == directory census.
		dirty := 0
		for p := 0; p < 2; p++ {
			m.PMemOf(p).ForEach(func(_ uint64, s cache.State, _ bool) {
				if s == cache.Dirty {
					dirty++
				}
			})
		}
		c := m.CensusTotal()
		if c.DirtyInP != dirty {
			t.Logf("census DirtyInP=%d, ground truth %d", c.DirtyInP, dirty)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
