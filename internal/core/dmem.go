// Package core implements the paper's primary contribution: the AGG DSM
// organization. It contains the D-node software-managed memory of §2.2.2
// (the Directory, Data and Pointer arrays with their FreeList and SharedList)
// and the AGG coherence protocol engine that runs over tagged P-node
// memories, including the shared-master state, write-backs that are always
// accepted by the home, and pageout instead of COMA-style injection.
package core

import (
	"fmt"
	"math"
	"math/bits"

	"pimdsm/internal/hashmap"
	"pimdsm/internal/proto"
)

// DirState is the stable directory state of a memory line at its home D-node.
type DirState uint8

const (
	// DirHome: the home holds the only (master) copy — "D-Node Only" in the
	// paper's Figure 8 — or the line is unfetched/on disk with no copy
	// anywhere.
	DirHome DirState = iota
	// DirShared: at least one P-node caches the line read-only. The master
	// copy is either at a P-node (given out on first read) or at the home.
	DirShared
	// DirDirty: exactly one P-node owns the only, writable copy. The home
	// keeps no place holder (its Data slot is reused).
	DirDirty
)

// String returns a short state name.
func (s DirState) String() string {
	switch s {
	case DirHome:
		return "Home"
	case DirShared:
		return "Shared"
	case DirDirty:
		return "Dirty"
	}
	return fmt.Sprintf("DirState(%d)", uint8(s))
}

// HomeMaster is the Master value meaning the home D-node holds the master copy.
const HomeMaster = -1

// nilPtr is the nil value for Data-slot and list indices.
const nilPtr = int32(-1)

// DirEntry is one entry of the Directory array: directory state plus the
// Local Pointer into the Data array (§2.2.2, Figure 3). It does not store its
// line's address: an entry sits at its line's index in its page's block, so
// the address is the page plus that index, and every caller already holds
// it. Without it an entry is 28 bytes, 4-byte fields first.
type DirEntry struct {
	Master  int32        // P-node with the master copy, or HomeMaster
	Sharers proto.PtrVec // P-nodes caching the line (limited 3-pointer vector)
	// LocalPtr indexes the Data array; nilPtr when the home keeps no copy.
	LocalPtr int32
	State    DirState
	// Unfetched marks a line that has never been materialized: a first
	// write is satisfied with zero-fill and needs no Data slot.
	Unfetched bool
	// OnDisk marks a line whose backing data was paged out; touching it
	// costs a disk access.
	OnDisk bool
}

// HasCopy reports whether the home currently stores the line's data.
func (e *DirEntry) HasCopy() bool { return e.LocalPtr != nilPtr }

// dirPage is a D-node's record of one page: the page's Directory entries
// while it is mapped, and whether its data is on disk while it is not.
type dirPage struct {
	page   uint64
	lines  []DirEntry // one per line, in address order; nil while unmapped
	idx    int        // position in DMem.pages while mapped
	onDisk bool       // a pageout wrote the page's data to disk
}

type listID uint8

const (
	listNone listID = iota
	listFree
	listShared
)

// ptrEntry is one entry of the Pointer array: a back pointer to the
// Directory (the line number, address >> log2 line size; MapPage keeps every
// mapped line inside uint32) and Prev/Next links tying the associated Data
// entry to the FreeList or SharedList (§2.2.2). 16 bytes.
type ptrEntry struct {
	line       uint32 // back pointer (DirPtr); meaningful only when used
	prev, next int32
	used       bool
	list       listID
}

// DMemStats counts D-node memory management events.
type DMemStats struct {
	SlotAllocs    uint64 // Data slots handed out
	SharedReuses  uint64 // SharedList head reused to satisfy an allocation
	PageoutsAsked uint64 // allocations that found no slot at all
	PagesMapped   uint64
	PagesUnmapped uint64
	SetConflicts  uint64 // set-associative mode: incoming line found its set full
}

// Census is the Figure 8 line-state classification for one D-node.
type Census struct {
	DirtyInP  int // only copy is dirty at a P-node (no home slot)
	SharedInP int // ≥1 P-node caches it (home may or may not hold a copy)
	DNodeOnly int // home holds the only copy (occupies a Data slot)
	Untouched int // mapped but never materialized (no slot, no copies)
	FreeSlots int // unused Data entries
	SlotCap   int // total Data entries
}

// DMem is the software-managed memory of one D-node: the Directory, Data and
// Pointer arrays of §2.2.2. Data-slot contents are not stored (the simulator
// is timing-accurate, not data-accurate); the structure faithfully tracks
// slot occupancy, the FreeList and the FIFO SharedList.
type DMem struct {
	dataCap   int
	dirCap    int
	pageBytes uint64

	// ptrs holds the Pointer entries of the Data slots handed out so far,
	// slots 0..len(ptrs)-1; the other dataCap-len(ptrs) slots are free and
	// have never been used. Allocation takes the next never-used slot
	// before the FreeList head (see takeFree), which is the order of a
	// FreeList that starts out holding every slot. ptrs grows by
	// reallocation, so no *ptrEntry is held across an allocation.
	ptrs                   []ptrEntry
	freeHead, freeTail     int32 // the FreeList: released slots only
	sharedHead, sharedTail int32
	freeLen, sharedLen     int

	// sharedMin is the SharedList low-water mark: when an allocation would
	// shrink SharedList below it, the caller should page out instead of
	// reusing more shared slots (the paper's threshold).
	sharedMin int

	// The Directory array is kept by page, as the OS fills it (§2.2.2):
	// one probe finds a page's record, and a line is an index into the
	// record's block of entries. A record lives from the page's first
	// touch on (it remembers a page paged out to disk); blocks are
	// recycled through freeBlocks across map/unmap cycles, so steady-state
	// paging allocates nothing, and a block never moves while handed out,
	// so protocol code may hold a *DirEntry across operations.
	recs       hashmap.Map[*dirPage]
	pages      []*dirPage // mapped pages in map order (FIFO pageout victims)
	freeBlocks [][]DirEntry
	mapped     int  // directory entries in use: the lines of mapped pages
	pageLines  int  // lines per page
	lineShift  uint // log2 of the line size

	// Set-associative mode (§2.2.2's rejected alternative, kept as an
	// ablation): when saAssoc > 0, a line may only occupy a slot of its
	// set, so an incoming line can find its set full even though the
	// FreeList is not empty — the situation that would force COMA-style
	// injections and that the paper's fully-associative software
	// organization avoids.
	saAssoc int
	saCount []int

	Stats DMemStats
}

// NewDMem builds a D-node memory with dataLines Data/Pointer entries and
// dirEntries Directory entries (the paper evaluates dirEntries = 1.5 ×
// dataLines). sharedMin is the SharedList reuse threshold.
func NewDMem(dataLines, dirEntries int, lineBytes, pageBytes uint64, sharedMin int) (*DMem, error) {
	if dataLines <= 0 || dirEntries < dataLines {
		return nil, fmt.Errorf("core: invalid D-memory geometry: %d data, %d directory entries", dataLines, dirEntries)
	}
	if pageBytes == 0 || lineBytes == 0 || pageBytes%lineBytes != 0 {
		return nil, fmt.Errorf("core: page size %d not a multiple of line size %d", pageBytes, lineBytes)
	}
	if pageBytes&(pageBytes-1) != 0 || lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("core: page size %d and line size %d must be powers of two", pageBytes, lineBytes)
	}
	d := &DMem{
		dataCap:    dataLines,
		dirCap:     dirEntries,
		pageBytes:  pageBytes,
		freeHead:   nilPtr,
		freeTail:   nilPtr,
		sharedHead: nilPtr,
		sharedTail: nilPtr,
		sharedMin:  sharedMin,
		pageLines:  int(pageBytes / lineBytes),
		lineShift:  uint(bits.TrailingZeros64(lineBytes)),
	}
	return d, nil
}

// MustNewDMem is NewDMem, panicking on error.
func MustNewDMem(dataLines, dirEntries int, lineBytes, pageBytes uint64, sharedMin int) *DMem {
	d, err := NewDMem(dataLines, dirEntries, lineBytes, pageBytes, sharedMin)
	if err != nil {
		panic(err)
	}
	return d
}

// --- intrusive list plumbing ---

func (d *DMem) head(l listID) *int32 {
	if l == listFree {
		return &d.freeHead
	}
	return &d.sharedHead
}

func (d *DMem) tail(l listID) *int32 {
	if l == listFree {
		return &d.freeTail
	}
	return &d.sharedTail
}

func (d *DMem) length(l listID) *int {
	if l == listFree {
		return &d.freeLen
	}
	return &d.sharedLen
}

func (d *DMem) pushTail(l listID, i int32) {
	p := &d.ptrs[i]
	if p.list != listNone {
		panic("core: pointer entry already on a list")
	}
	p.list = l
	p.next = nilPtr
	p.prev = *d.tail(l)
	if p.prev != nilPtr {
		d.ptrs[p.prev].next = i
	} else {
		*d.head(l) = i
	}
	*d.tail(l) = i
	*d.length(l)++
}

func (d *DMem) unlink(i int32) {
	p := &d.ptrs[i]
	l := p.list
	if l == listNone {
		return
	}
	if p.prev != nilPtr {
		d.ptrs[p.prev].next = p.next
	} else {
		*d.head(l) = p.next
	}
	if p.next != nilPtr {
		d.ptrs[p.next].prev = p.prev
	} else {
		*d.tail(l) = p.prev
	}
	p.prev, p.next, p.list = nilPtr, nilPtr, listNone
	*d.length(l)--
}

func (d *DMem) popHead(l listID) (int32, bool) {
	h := *d.head(l)
	if h == nilPtr {
		return nilPtr, false
	}
	d.unlink(h)
	return h, true
}

// takeFree hands out a free Data slot: the lowest never-used slot while one
// is left, else the FreeList head. A FreeList that starts out holding every
// slot in index order, and takes released slots at its tail, hands out the
// same slots in the same order.
func (d *DMem) takeFree() (int32, bool) {
	n := len(d.ptrs)
	if n == d.dataCap {
		return d.popHead(listFree)
	}
	if n == cap(d.ptrs) {
		// Double from 64, but once that would pass half of dataCap go
		// straight to dataCap: a D-node that ends near full then copies
		// its Pointer array once more instead of holding about twice it.
		c := max(2*n, 64)
		if c > d.dataCap/2 {
			c = d.dataCap
		}
		grown := make([]ptrEntry, n, c)
		copy(grown, d.ptrs)
		d.ptrs = grown
	}
	d.ptrs = append(d.ptrs, ptrEntry{prev: nilPtr, next: nilPtr})
	return int32(n), true
}

// lineNo is the Pointer array's back pointer for the line at addr.
func (d *DMem) lineNo(addr uint64) uint32 { return uint32(addr >> d.lineShift) }

// slotLine is the address of the line Data slot i backs.
func (d *DMem) slotLine(i int32) uint64 { return uint64(d.ptrs[i].line) << d.lineShift }

// --- geometry / lookup ---

// FreeLen returns the number of free Data slots: the FreeList plus the
// slots never used.
func (d *DMem) FreeLen() int { return d.freeLen + d.dataCap - len(d.ptrs) }

// SharedLen returns the SharedList length.
func (d *DMem) SharedLen() int { return d.sharedLen }

// PageOf returns the page address containing addr.
func (d *DMem) PageOf(addr uint64) uint64 { return addr &^ (d.pageBytes - 1) }

// Entry returns the directory entry for the line containing addr, or nil if
// its page is not mapped here.
func (d *DMem) Entry(addr uint64) *DirEntry {
	pg, _ := d.recs.Get(d.PageOf(addr))
	return d.lineIn(pg, addr)
}

// lineIn returns the entry for addr's line in pg, its page's record, or nil
// if there is no record or the page is not mapped.
func (d *DMem) lineIn(pg *dirPage, addr uint64) *DirEntry {
	if pg == nil || pg.lines == nil {
		return nil
	}
	return &pg.lines[(addr&(d.pageBytes-1))>>d.lineShift]
}

// record returns page's record, creating an unmapped one if there is none.
func (d *DMem) record(page uint64) *dirPage {
	pg, ok := d.recs.Get(page)
	if !ok {
		pg = &dirPage{page: page}
		d.recs.Put(page, pg)
	}
	return pg
}

// PageMapped reports whether page is currently mapped at this D-node.
func (d *DMem) PageMapped(page uint64) bool {
	pg, _ := d.recs.Get(page)
	return pg != nil && pg.lines != nil
}

// PageOnDisk reports whether page was previously paged out to disk.
func (d *DMem) PageOnDisk(page uint64) bool { pg, _ := d.recs.Get(page); return pg != nil && pg.onDisk }

// DirRoom reports whether the Directory array can accept another page's
// worth of entries.
func (d *DMem) DirRoom() bool { return d.mapped+d.pageLines <= d.dirCap }

// MappedLines returns the number of directory entries in use.
func (d *DMem) MappedLines() int { return d.mapped }

// --- page mapping ---

// MapPage creates directory entries for every line of page. Each D-node
// keeps as many directory entries as memory lines exist in the pages it has
// mapped (§2.2.2); the caller must ensure DirRoom (paging out first if not).
// If the page's data is on disk the lines are marked OnDisk; otherwise they
// are Unfetched (zero-fill on demand, no Data slot consumed).
func (d *DMem) MapPage(page uint64) error {
	if page%d.pageBytes != 0 {
		return fmt.Errorf("core: unaligned page %#x", page)
	}
	pg := d.record(page)
	if pg.lines != nil {
		return fmt.Errorf("core: page %#x already mapped", page)
	}
	if (page>>d.lineShift)+uint64(d.pageLines) > math.MaxUint32+1 {
		return fmt.Errorf("core: page %#x lies beyond the %d-line back-pointer range", page, uint64(math.MaxUint32)+1)
	}
	if !d.DirRoom() {
		return fmt.Errorf("core: directory array full (%d/%d entries)", d.mapped, d.dirCap)
	}
	if n := len(d.freeBlocks); n > 0 {
		pg.lines = d.freeBlocks[n-1]
		d.freeBlocks = d.freeBlocks[:n-1]
	} else {
		pg.lines = make([]DirEntry, d.pageLines)
	}
	for i := range pg.lines {
		pg.lines[i] = DirEntry{
			State:     DirHome,
			Master:    HomeMaster,
			LocalPtr:  nilPtr,
			Unfetched: !pg.onDisk,
			OnDisk:    pg.onDisk,
		}
	}
	pg.idx = len(d.pages)
	d.pages = append(d.pages, pg)
	pg.onDisk = false
	d.mapped += d.pageLines
	d.Stats.PagesMapped++
	return nil
}

// PageLines calls fn with each line address and directory entry of a mapped
// page, in address order.
func (d *DMem) PageLines(page uint64, fn func(line uint64, e *DirEntry)) {
	if pg, _ := d.recs.Get(page); pg != nil {
		for i := range pg.lines {
			fn(pg.page+uint64(i)<<d.lineShift, &pg.lines[i])
		}
	}
}

// UnmapPage removes a page's directory entries, releasing any Data slots
// they held, and records the page as resident on disk. The caller must
// already have recalled/invalidated all P-node copies of the page's lines
// (the OS "recalls the lines that are currently not in the D-node memory",
// §2.2.2).
func (d *DMem) UnmapPage(page uint64) error {
	pg, _ := d.recs.Get(page)
	if pg == nil || pg.lines == nil {
		return fmt.Errorf("core: unmap of unmapped page %#x", page)
	}
	for i := range pg.lines {
		if e := &pg.lines[i]; e.State != DirHome {
			return fmt.Errorf("core: unmap of page %#x with un-recalled line %#x in state %v", page, page+uint64(i)<<d.lineShift, e.State)
		}
	}
	for i := range pg.lines {
		d.releaseSlot(&pg.lines[i])
	}
	d.freeBlocks = append(d.freeBlocks, pg.lines)
	pg.lines = nil
	pg.onDisk = true
	d.mapped -= d.pageLines
	// Remove from the FIFO page list (swap-with-last keeps this O(1); the
	// FIFO ordering of the remaining pages is preserved well enough for
	// victim selection because pageout always takes from the front).
	last := d.pages[len(d.pages)-1]
	d.pages[pg.idx] = last
	last.idx = pg.idx
	d.pages = d.pages[:len(d.pages)-1]
	d.Stats.PagesUnmapped++
	return nil
}

// PageoutCandidates returns up to n pages to page out, oldest mapped first,
// excluding the page containing protect (the line being serviced).
func (d *DMem) PageoutCandidates(n int, protect uint64) []uint64 {
	prot := d.PageOf(protect)
	var out []uint64
	for _, pg := range d.pages {
		if pg.page == prot {
			continue
		}
		out = append(out, pg.page)
		if len(out) == n {
			break
		}
	}
	return out
}

// --- Data slot management ---

// AllocResult describes how a Data slot was (or was not) obtained.
type AllocResult uint8

const (
	// AllocFree: a FreeList slot was used.
	AllocFree AllocResult = iota
	// AllocSharedReuse: the SharedList head was reused; that line's home
	// copy was dropped (its master lives on at a P-node).
	AllocSharedReuse
	// AllocFailed: no slot available — the caller must page out and retry.
	AllocFailed
)

// ConfigureSetAssoc switches the Data array into assoc-way set-associative
// mode — the §2.2.2 alternative the paper rejects. Must be called before
// any slot is allocated.
func (d *DMem) ConfigureSetAssoc(assoc int) {
	if assoc <= 0 || d.dataCap%assoc != 0 {
		panic(fmt.Sprintf("core: invalid D-memory associativity %d for %d slots", assoc, d.dataCap))
	}
	if d.FreeLen() != d.dataCap {
		panic("core: ConfigureSetAssoc on a non-empty D-memory")
	}
	d.saAssoc = assoc
	d.saCount = make([]int, d.dataCap/assoc)
}

// saSet returns the Data set index of line number ln in set-associative
// mode.
func (d *DMem) saSet(ln uint32) int {
	return int(uint64(ln) % uint64(len(d.saCount)))
}

// setFull reports whether the line at addr cannot be stored because its
// Data set is full (set-associative mode only).
func (d *DMem) setFull(addr uint64) bool {
	return d.saAssoc > 0 && d.saCount[d.saSet(d.lineNo(addr))] >= d.saAssoc
}

// EnsureSlot makes e, the entry of the line at addr, hold a Data slot,
// following the paper's policy: take a free slot; if none is left, reuse the
// SharedList head unless that would drop SharedList below the threshold.
// dropped is the directory entry whose home copy was discarded on reuse (nil
// otherwise). In the set-associative ablation an allocation additionally
// fails when the line's set is full — first trying to reuse a *same-set*
// SharedList resident.
func (d *DMem) EnsureSlot(addr uint64, e *DirEntry) (res AllocResult, dropped *DirEntry) {
	if e.LocalPtr != nilPtr {
		return AllocFree, nil
	}
	if d.saAssoc > 0 {
		// Set-associative mode: only this line's set can hold it.
		if !d.setFull(addr) {
			if i, ok := d.takeFree(); ok {
				d.attach(addr, e, i)
				d.Stats.SlotAllocs++
				return AllocFree, nil
			}
		}
		if victim := d.reuseSharedInSet(addr, e); victim != nil {
			return AllocSharedReuse, victim
		}
		d.Stats.SetConflicts++
		d.Stats.PageoutsAsked++
		return AllocFailed, nil
	}
	if i, ok := d.takeFree(); ok {
		d.attach(addr, e, i)
		d.Stats.SlotAllocs++
		return AllocFree, nil
	}
	if d.sharedLen > d.sharedMin {
		i, ok := d.popHead(listShared)
		if ok {
			victim := d.Entry(d.slotLine(i))
			if victim == nil || victim.LocalPtr != i {
				panic("core: SharedList back pointer desynchronized")
			}
			d.dropCopy(victim)
			d.attach(addr, e, i)
			d.Stats.SlotAllocs++
			d.Stats.SharedReuses++
			return AllocSharedReuse, victim
		}
	}
	d.Stats.PageoutsAsked++
	return AllocFailed, nil
}

// dropCopy releases victim's slot bookkeeping after its Pointer entry was
// unlinked for reuse.
func (d *DMem) dropCopy(victim *DirEntry) {
	i := victim.LocalPtr
	if d.saAssoc > 0 {
		d.saCount[d.saSet(d.ptrs[i].line)]--
	}
	victim.LocalPtr = nilPtr
	d.ptrs[i].used = false
}

// reuseSharedInSet searches the SharedList (FIFO order, bounded walk) for a
// droppable home copy in the same Data set as the line at addr, the only
// legal reuse in set-associative mode. It performs the swap and returns the
// dropped entry, or nil.
func (d *DMem) reuseSharedInSet(addr uint64, e *DirEntry) *DirEntry {
	want := d.saSet(d.lineNo(addr))
	i := d.sharedHead
	for steps := 0; i != nilPtr && steps < 64; steps++ {
		victim := d.Entry(d.slotLine(i))
		next := d.ptrs[i].next
		if victim != nil && d.saSet(d.ptrs[i].line) == want {
			d.unlink(i)
			d.dropCopy(victim)
			d.attach(addr, e, i)
			d.Stats.SlotAllocs++
			d.Stats.SharedReuses++
			return victim
		}
		i = next
	}
	return nil
}

// attach binds Data slot i to entry e of the line at addr (not on any list
// yet; LinkShared or leaving it unlinked reflects mastership).
func (d *DMem) attach(addr uint64, e *DirEntry, i int32) {
	p := &d.ptrs[i]
	if p.used || p.list != listNone {
		panic("core: attaching a busy pointer entry")
	}
	p.used = true
	p.line = d.lineNo(addr)
	e.LocalPtr = i
	e.Unfetched = false
	e.OnDisk = false
	if d.saAssoc > 0 {
		d.saCount[d.saSet(p.line)]++
	}
}

// releaseSlot frees e's Data slot back to the FreeList (e.g. when the line
// became dirty at a P-node and the home's place holder is reused, §2.2.2).
func (d *DMem) releaseSlot(e *DirEntry) {
	i := e.LocalPtr
	if i == nilPtr {
		return
	}
	d.unlink(i)
	d.dropCopy(e)
	d.pushTail(listFree, i)
}

// ReleaseSlot frees e's Data slot (exported form of releaseSlot).
func (d *DMem) ReleaseSlot(e *DirEntry) { d.releaseSlot(e) }

// LinkShared ties e's slot to the SharedList tail: the home copy is a
// non-master shared copy (mastership was given to a P-node) and may be
// reclaimed FIFO if space runs short.
func (d *DMem) LinkShared(e *DirEntry) {
	if e.LocalPtr == nilPtr {
		panic("core: LinkShared without a Data slot")
	}
	if d.ptrs[e.LocalPtr].list == listShared {
		return
	}
	d.unlink(e.LocalPtr)
	d.pushTail(listShared, e.LocalPtr)
}

// UnlinkShared removes e's slot from the SharedList: the home (re)gained
// mastership, so its copy must not be dropped.
func (d *DMem) UnlinkShared(e *DirEntry) {
	if e.LocalPtr == nilPtr {
		return
	}
	if d.ptrs[e.LocalPtr].list == listShared {
		d.unlink(e.LocalPtr)
	}
}

// ForceSlot is EnsureSlot's crisis fallback: it reuses the SharedList head
// even below the threshold (the paper's "high-priority pause" region). It
// reports success and the entry whose home copy was dropped.
func (d *DMem) ForceSlot(addr uint64, e *DirEntry) (bool, *DirEntry) {
	if e.LocalPtr != nilPtr {
		return true, nil
	}
	if d.saAssoc > 0 {
		// Set-associative mode: only a same-set resident can be displaced.
		if !d.setFull(addr) {
			if i, ok := d.takeFree(); ok {
				d.attach(addr, e, i)
				d.Stats.SlotAllocs++
				return true, nil
			}
		}
		if victim := d.reuseSharedInSet(addr, e); victim != nil {
			return true, victim
		}
		return false, nil
	}
	i, ok := d.popHead(listShared)
	if !ok {
		return false, nil
	}
	victim := d.Entry(d.slotLine(i))
	if victim == nil || victim.LocalPtr != i {
		panic("core: SharedList back pointer desynchronized")
	}
	d.dropCopy(victim)
	d.attach(addr, e, i)
	d.Stats.SlotAllocs++
	d.Stats.SharedReuses++
	return true, victim
}

// NeedPageout reports that free space is low enough that the OS should page
// out (FreeList empty and SharedList at or below the threshold).
func (d *DMem) NeedPageout() bool {
	return d.FreeLen() == 0 && d.sharedLen <= d.sharedMin
}

// --- accounting / verification ---

// CensusAdd accumulates this D-node's Figure 8 classification into c.
func (d *DMem) CensusAdd(c *Census) {
	for _, pg := range d.pages {
		for i := range pg.lines {
			switch e := &pg.lines[i]; {
			case e.State == DirDirty:
				c.DirtyInP++
			case e.State == DirShared:
				c.SharedInP++
			case e.LocalPtr != nilPtr:
				c.DNodeOnly++
			default:
				c.Untouched++
			}
		}
	}
	c.FreeSlots += d.FreeLen()
	c.SlotCap += d.dataCap
}

// AuditEntry checks the slot-and-list discipline of e, the entry of the line
// at addr — the per-transaction slice of CheckInvariants the coherence
// auditor runs at span retirement. O(1): a dirty line must hold no Data
// slot; a held slot must have been handed out, and its Pointer entry must
// back-reference the line, must not sit on the FreeList, and must be on the
// SharedList exactly when mastership is held by a remote P-node (a droppable
// home copy).
func (d *DMem) AuditEntry(addr uint64, e *DirEntry) error {
	if e.State == DirDirty && e.HasCopy() {
		return fmt.Errorf("dirty line %#x holds Data slot %d", addr, e.LocalPtr)
	}
	if !e.HasCopy() {
		return nil
	}
	if e.LocalPtr < 0 || int(e.LocalPtr) >= len(d.ptrs) {
		return fmt.Errorf("line %#x points at slot %d, not one of the %d handed out", addr, e.LocalPtr, len(d.ptrs))
	}
	p := &d.ptrs[e.LocalPtr]
	if !p.used {
		return fmt.Errorf("line %#x points at unused slot %d", addr, e.LocalPtr)
	}
	if p.line != d.lineNo(addr) {
		return fmt.Errorf("slot %d back-pointer %#x does not match line %#x", e.LocalPtr, d.slotLine(e.LocalPtr), addr)
	}
	if p.list == listFree {
		return fmt.Errorf("line %#x holds slot %d that dangles on the FreeList", addr, e.LocalPtr)
	}
	wantShared := e.State == DirShared && e.Master != HomeMaster
	if got := p.list == listShared; got != wantShared {
		return fmt.Errorf("line %#x (state %v, master %d): slot %d SharedList membership %v, want %v",
			addr, e.State, e.Master, e.LocalPtr, got, wantShared)
	}
	return nil
}

// AuditFreeList is the O(1) FreeList sanity check run at span retirement:
// the slots handed out must not exceed the Data array, and the FreeList head
// must agree with the length accounting, carry the FreeList tag, and
// reference an unused slot (a used slot reachable from the FreeList is the
// "dangling FreeList entry" corruption).
func (d *DMem) AuditFreeList() error {
	if len(d.ptrs) > d.dataCap || d.freeLen > len(d.ptrs) {
		return fmt.Errorf("%d slots handed out, %d of them on the FreeList, of %d", len(d.ptrs), d.freeLen, d.dataCap)
	}
	if (d.freeHead == nilPtr) != (d.freeLen == 0) {
		return fmt.Errorf("FreeList head %d disagrees with length %d", d.freeHead, d.freeLen)
	}
	if d.freeHead == nilPtr {
		return nil
	}
	p := &d.ptrs[d.freeHead]
	if p.list != listFree {
		return fmt.Errorf("FreeList head %d tagged %d, not FreeList", d.freeHead, p.list)
	}
	if p.used {
		return fmt.Errorf("dangling FreeList entry: head slot %d is in use by line %#x", d.freeHead, d.slotLine(d.freeHead))
	}
	if p.prev != nilPtr {
		return fmt.Errorf("FreeList head %d has predecessor %d", d.freeHead, p.prev)
	}
	return nil
}

// CheckInvariants verifies the Directory/Data/Pointer cross-links and list
// accounting. It is exercised by tests and property checks.
func (d *DMem) CheckInvariants() error {
	// Every slot is free xor used; lists are consistent.
	free, shared, noList := 0, 0, 0
	for i := range d.ptrs {
		p := &d.ptrs[i]
		switch p.list {
		case listFree:
			free++
			if p.used {
				return fmt.Errorf("slot %d on FreeList but used", i)
			}
		case listShared:
			shared++
			if !p.used {
				return fmt.Errorf("slot %d on SharedList but free", i)
			}
			e := d.Entry(d.slotLine(int32(i)))
			if e == nil || e.LocalPtr != int32(i) {
				return fmt.Errorf("slot %d SharedList back pointer broken", i)
			}
			if e.State != DirShared || e.Master == HomeMaster {
				return fmt.Errorf("slot %d on SharedList but entry %v/master=%d", i, e.State, e.Master)
			}
		case listNone:
			noList++
			if !p.used {
				return fmt.Errorf("slot %d off-list but free", i)
			}
		}
	}
	if free != d.freeLen || shared != d.sharedLen {
		return fmt.Errorf("list lengths: free %d/%d shared %d/%d", free, d.freeLen, shared, d.sharedLen)
	}
	if free+shared+noList != len(d.ptrs) || len(d.ptrs) > d.dataCap {
		return fmt.Errorf("slots don't add up: %d+%d+%d != %d handed out of %d", free, shared, noList, len(d.ptrs), d.dataCap)
	}
	// Every entry with a slot is backed by it; dirty entries hold no slot.
	slots := 0
	var counts []int
	if d.saAssoc > 0 {
		counts = make([]int, len(d.saCount))
	}
	for idx, pg := range d.pages {
		if pg.idx != idx || len(pg.lines) != d.pageLines {
			return fmt.Errorf("page %#x at FIFO position %d records position %d and %d lines", pg.page, idx, pg.idx, len(pg.lines))
		}
		for i := range pg.lines {
			e := &pg.lines[i]
			a := pg.page + uint64(i)<<d.lineShift
			if e.LocalPtr != nilPtr {
				slots++
				if e.LocalPtr < 0 || int(e.LocalPtr) >= len(d.ptrs) {
					return fmt.Errorf("entry %#x holds slot %d, not one of the %d handed out", a, e.LocalPtr, len(d.ptrs))
				}
				p := &d.ptrs[e.LocalPtr]
				if !p.used || p.line != d.lineNo(a) {
					return fmt.Errorf("entry %#x slot %d back pointer broken", a, e.LocalPtr)
				}
				if e.State == DirDirty {
					return fmt.Errorf("entry %#x dirty-in-P but holds a Data slot", a)
				}
				if counts != nil {
					counts[d.saSet(p.line)]++
				}
			}
			if e.State == DirShared && e.Master == HomeMaster && e.LocalPtr == nilPtr {
				return fmt.Errorf("entry %#x: home is master of a shared line but holds no copy", a)
			}
		}
	}
	if slots != noList+shared {
		return fmt.Errorf("used slots %d != entries with slots %d", noList+shared, slots)
	}
	if d.mapped != len(d.pages)*d.pageLines {
		return fmt.Errorf("mapped-line count %d != %d pages of %d lines", d.mapped, len(d.pages), d.pageLines)
	}
	if d.mapped > d.dirCap {
		return fmt.Errorf("directory overflow: %d > %d", d.mapped, d.dirCap)
	}
	if counts != nil {
		for s := range counts {
			if counts[s] != d.saCount[s] {
				return fmt.Errorf("set %d count %d != recorded %d", s, counts[s], d.saCount[s])
			}
			if counts[s] > d.saAssoc {
				return fmt.Errorf("set %d over-full: %d > %d ways", s, counts[s], d.saAssoc)
			}
		}
	}
	return nil
}
