package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
	"unsafe"
)

// newDMem returns a small D-memory: 8 Data slots, 12 directory entries
// (the paper's 1.5× ratio), 128 B lines, 512 B pages (4 lines/page),
// SharedList threshold 1.
func newDMem(t *testing.T) *DMem {
	t.Helper()
	d, err := NewDMem(8, 12, 128, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDMemEntrySizes pins the per-line bytes of the Directory and Pointer
// arrays: a directory entry derives its line's address from its page and
// index, and a Pointer entry's back pointer is a uint32 line number.
func TestDMemEntrySizes(t *testing.T) {
	if n := unsafe.Sizeof(DirEntry{}); n > 28 {
		t.Errorf("DirEntry is %d B, want <= 28", n)
	}
	if n := unsafe.Sizeof(ptrEntry{}); n > 16 {
		t.Errorf("ptrEntry is %d B, want <= 16", n)
	}
}

func TestNewDMemValidation(t *testing.T) {
	if _, err := NewDMem(0, 0, 128, 512, 1); err == nil {
		t.Error("zero data lines accepted")
	}
	if _, err := NewDMem(8, 4, 128, 512, 1); err == nil {
		t.Error("directory smaller than data accepted")
	}
	if _, err := NewDMem(8, 12, 128, 500, 1); err == nil {
		t.Error("page size not multiple of line size accepted")
	}
}

func TestMapPageCreatesUnfetchedEntries(t *testing.T) {
	d := newDMem(t)
	if err := d.MapPage(0x1000); err != nil {
		t.Fatal(err)
	}
	if d.MappedLines() != 4 {
		t.Fatalf("mapped lines = %d, want 4", d.MappedLines())
	}
	e := d.Entry(0x1080)
	if e == nil || !e.Unfetched || e.HasCopy() || e.State != DirHome {
		t.Fatalf("entry = %+v", e)
	}
	// Unfetched lines consume no Data slots.
	if d.FreeLen() != 8 {
		t.Fatalf("FreeLen = %d, want 8", d.FreeLen())
	}
	if err := d.MapPage(0x1000); err == nil {
		t.Error("double map accepted")
	}
	if err := d.MapPage(0x1001); err == nil {
		t.Error("unaligned page accepted")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDirRoomLimit(t *testing.T) {
	d := newDMem(t) // 12 dir entries = 3 pages of 4 lines
	for i := uint64(0); i < 3; i++ {
		if err := d.MapPage(i * 512); err != nil {
			t.Fatal(err)
		}
	}
	if d.DirRoom() {
		t.Fatal("DirRoom true at capacity")
	}
	if err := d.MapPage(3 * 512); err == nil {
		t.Fatal("mapping beyond directory capacity accepted")
	}
}

func TestEnsureSlotFreeList(t *testing.T) {
	d := newDMem(t)
	d.MapPage(0x0)
	e := d.Entry(0x0)
	res, dropped := d.EnsureSlot(0x0, e)
	if res != AllocFree || dropped != nil || !e.HasCopy() {
		t.Fatalf("EnsureSlot = %v/%v, entry %+v", res, dropped, e)
	}
	if e.Unfetched {
		t.Fatal("entry still unfetched after slot attach")
	}
	if d.FreeLen() != 7 {
		t.Fatalf("FreeLen = %d, want 7", d.FreeLen())
	}
	// Idempotent.
	if res, _ := d.EnsureSlot(0x0, e); res != AllocFree || d.FreeLen() != 7 {
		t.Fatal("second EnsureSlot changed state")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedListFIFOReuse(t *testing.T) {
	d := newDMem(t)
	d.MapPage(0)
	d.MapPage(512)
	// Fill all 8 slots with shared lines whose masters live at P-node 5.
	var lines []uint64
	for a := uint64(0); a < 1024; a += 128 {
		e := d.Entry(a)
		if res, _ := d.EnsureSlot(a, e); res != AllocFree {
			t.Fatalf("slot alloc for %#x: %v", a, res)
		}
		e.State = DirShared
		e.Master = 5
		e.Sharers.Add(5)
		d.LinkShared(e)
		lines = append(lines, a)
	}
	if d.SharedLen() != 8 || d.FreeLen() != 0 {
		t.Fatalf("shared=%d free=%d", d.SharedLen(), d.FreeLen())
	}
	d.MapPage(1024)
	e := d.Entry(1024)
	res, dropped := d.EnsureSlot(1024, e)
	if res != AllocSharedReuse {
		t.Fatalf("reuse result = %v", res)
	}
	// FIFO: the first inserted shared line loses its home copy.
	if dropped == nil || dropped != d.Entry(lines[0]) {
		t.Fatalf("dropped %+v, want line %#x", dropped, lines[0])
	}
	if dropped.HasCopy() {
		t.Fatal("dropped entry still has a copy")
	}
	// The dropped line's mastership still lives at the P-node.
	if dropped.State != DirShared || dropped.Master != 5 {
		t.Fatalf("dropped entry state %v master %d", dropped.State, dropped.Master)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedListThresholdStopsReuse(t *testing.T) {
	d := MustNewDMem(2, 4, 128, 512, 2) // threshold = whole SharedList
	d.MapPage(0)
	for _, a := range []uint64{0, 128} {
		e := d.Entry(a)
		d.EnsureSlot(a, e)
		e.State = DirShared
		e.Master = 1
		d.LinkShared(e)
	}
	e := d.Entry(256)
	res, _ := d.EnsureSlot(256, e)
	if res != AllocFailed {
		t.Fatalf("allocation below threshold = %v, want AllocFailed", res)
	}
	if !d.NeedPageout() {
		t.Fatal("NeedPageout false when allocation failed")
	}
	if d.Stats.PageoutsAsked != 1 {
		t.Fatalf("PageoutsAsked = %d", d.Stats.PageoutsAsked)
	}
}

func TestReleaseSlotReturnsToFreeList(t *testing.T) {
	d := newDMem(t)
	d.MapPage(0)
	e := d.Entry(0)
	d.EnsureSlot(0, e)
	e.State = DirDirty
	e.Master = 3
	d.ReleaseSlot(e)
	if e.HasCopy() || d.FreeLen() != 8 {
		t.Fatalf("release: hasCopy=%v free=%d", e.HasCopy(), d.FreeLen())
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMastershipLinkUnlink(t *testing.T) {
	d := newDMem(t)
	d.MapPage(0)
	e := d.Entry(0)
	d.EnsureSlot(0, e)
	e.State = DirShared
	e.Master = 2
	d.LinkShared(e)
	if d.SharedLen() != 1 {
		t.Fatal("LinkShared did not grow SharedList")
	}
	d.LinkShared(e) // idempotent
	if d.SharedLen() != 1 {
		t.Fatal("double LinkShared duplicated entry")
	}
	// Home regains mastership: slot leaves SharedList but stays allocated.
	e.Master = HomeMaster
	d.UnlinkShared(e)
	if d.SharedLen() != 0 || !e.HasCopy() {
		t.Fatalf("UnlinkShared: shared=%d hasCopy=%v", d.SharedLen(), e.HasCopy())
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUnmapPageToDisk(t *testing.T) {
	d := newDMem(t)
	d.MapPage(0)
	e := d.Entry(128)
	d.EnsureSlot(128, e)
	if err := d.UnmapPage(0); err != nil {
		t.Fatal(err)
	}
	if d.MappedLines() != 0 || d.FreeLen() != 8 {
		t.Fatalf("after unmap: lines=%d free=%d", d.MappedLines(), d.FreeLen())
	}
	if !d.PageOnDisk(0) {
		t.Fatal("unmapped page not recorded on disk")
	}
	// Remapping brings it back with OnDisk lines.
	if err := d.MapPage(0); err != nil {
		t.Fatal(err)
	}
	if e := d.Entry(0); !e.OnDisk || e.Unfetched {
		t.Fatalf("refaulted entry = %+v", e)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUnmapPageRejectsLiveLines(t *testing.T) {
	d := newDMem(t)
	d.MapPage(0)
	e := d.Entry(0)
	e.State = DirDirty
	e.Master = 1
	if err := d.UnmapPage(0); err == nil {
		t.Fatal("unmap with un-recalled dirty line accepted")
	}
}

func TestPageoutCandidatesFIFOAndProtect(t *testing.T) {
	d := newDMem(t)
	d.MapPage(0)
	d.MapPage(512)
	d.MapPage(1024)
	got := d.PageoutCandidates(2, 64) // protect page 0
	if len(got) != 2 || got[0] != 512 || got[1] != 1024 {
		t.Fatalf("candidates = %v", got)
	}
	got = d.PageoutCandidates(10, 2048)
	if len(got) != 3 || got[0] != 0 {
		t.Fatalf("unprotected candidates = %v", got)
	}
}

func TestCensus(t *testing.T) {
	d := newDMem(t)
	d.MapPage(0)
	// line 0: dirty in P.
	e := d.Entry(0)
	e.State = DirDirty
	e.Master = 1
	// line 1: shared with home copy.
	e = d.Entry(128)
	d.EnsureSlot(128, e)
	e.State = DirShared
	e.Master = 2
	d.LinkShared(e)
	// line 2: D-node only.
	e = d.Entry(256)
	d.EnsureSlot(256, e)
	// line 3 stays untouched.
	var c Census
	d.CensusAdd(&c)
	if c.DirtyInP != 1 || c.SharedInP != 1 || c.DNodeOnly != 1 || c.Untouched != 1 {
		t.Fatalf("census = %+v", c)
	}
	if c.FreeSlots != 6 || c.SlotCap != 8 {
		t.Fatalf("census slots = %+v", c)
	}
}

// Property: invariants hold under random sequences of map / slot / mastership
// / release / unmap operations.
func TestDMemInvariantProperty(t *testing.T) {
	f := func(seed uint64, steps uint8) bool {
		d := MustNewDMem(16, 24, 128, 512, 2)
		rng := rand.New(rand.NewPCG(seed, 99))
		pages := []uint64{0, 512, 1024, 1536, 2048, 2560}
		for i := 0; i < int(steps)*3; i++ {
			pg := pages[rng.IntN(len(pages))]
			switch rng.IntN(6) {
			case 0:
				if !d.PageMapped(pg) && d.DirRoom() {
					if err := d.MapPage(pg); err != nil {
						return false
					}
				}
			case 1, 2: // make a random mapped line shared-with-home-copy
				if !d.PageMapped(pg) {
					continue
				}
				a := pg + uint64(rng.IntN(4))*128
				e := d.Entry(a)
				if e.State == DirDirty {
					continue
				}
				if res, _ := d.EnsureSlot(a, e); res == AllocFailed {
					continue
				}
				e.State = DirShared
				e.Master = int32(rng.IntN(4))
				e.Sharers.Add(int(e.Master))
				d.LinkShared(e)
			case 3: // make a line dirty in P (home drops its copy)
				if !d.PageMapped(pg) {
					continue
				}
				e := d.Entry(pg + uint64(rng.IntN(4))*128)
				d.UnlinkShared(e)
				d.ReleaseSlot(e)
				e.State = DirDirty
				e.Master = int32(rng.IntN(4))
				e.Sharers.Clear()
			case 4: // write a dirty line back home
				if !d.PageMapped(pg) {
					continue
				}
				a := pg + uint64(rng.IntN(4))*128
				e := d.Entry(a)
				if e.State != DirDirty {
					continue
				}
				if res, _ := d.EnsureSlot(a, e); res == AllocFailed {
					continue
				}
				e.State = DirHome
				e.Master = HomeMaster
				e.Sharers.Clear()
			case 5: // page out (recall everything first)
				if !d.PageMapped(pg) {
					continue
				}
				d.PageLines(pg, func(_ uint64, e *DirEntry) {
					d.UnlinkShared(e)
					e.State = DirHome
					e.Master = HomeMaster
					e.Sharers.Clear()
				})
				if err := d.UnmapPage(pg); err != nil {
					return false
				}
			}
			if err := d.CheckInvariants(); err != nil {
				t.Logf("invariant violated: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSetAssociativeMode(t *testing.T) {
	d := MustNewDMem(8, 12, 128, 512, 0) // 8 slots
	d.ConfigureSetAssoc(2)               // 4 sets of 2 ways
	d.MapPage(0)
	d.MapPage(512)
	// Lines 0 and 4 pages apart share set (lineIndex mod 4): line 0 and
	// line 4 (addr 512) both map to set 0.
	e0 := d.Entry(0)
	e4 := d.Entry(512)
	if r, _ := d.EnsureSlot(0, e0); r == AllocFailed {
		t.Fatal("first same-set alloc failed")
	}
	if r, _ := d.EnsureSlot(512, e4); r == AllocFailed {
		t.Fatal("second same-set alloc failed")
	}
	// Third line of set 0 (line 8 would be page 2; use a mapped one):
	// addr 0 and 512 used set 0; entry at 512+... pick line index 8 ≡ 0 mod 4
	d.MapPage(1024)
	e8 := d.Entry(1024)
	r, _ := d.EnsureSlot(1024, e8)
	if r != AllocFailed {
		t.Fatalf("set over-subscription allowed: %v", r)
	}
	if d.Stats.SetConflicts != 1 {
		t.Fatalf("SetConflicts = %d, want 1", d.Stats.SetConflicts)
	}
	// FreeList is NOT empty — the conflict is purely associativity.
	if d.FreeLen() == 0 {
		t.Fatal("test setup: FreeList unexpectedly empty")
	}
	// A same-set SharedList resident can be reused.
	e0.State = DirShared
	e0.Master = 3
	d.LinkShared(e0)
	r, dropped := d.EnsureSlot(1024, e8)
	if r != AllocSharedReuse || dropped != e0 {
		t.Fatalf("same-set reuse: %v %v", r, dropped)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Releasing frees the set.
	e8.State = DirDirty
	e8.Master = 1
	d.ReleaseSlot(e8)
	if r, _ := d.EnsureSlot(0, d.Entry(0)); r == AllocFailed {
		t.Fatal("set not freed by release")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigureSetAssocValidation(t *testing.T) {
	d := MustNewDMem(8, 12, 128, 512, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid associativity accepted")
		}
	}()
	d.ConfigureSetAssoc(3) // 8 % 3 != 0
}
