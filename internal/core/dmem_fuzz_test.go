package core

import (
	"slices"
	"testing"
)

// eagerSlots is FuzzDMemSlots' reference for Data-slot order: the D-memory's
// slot bookkeeping as a FreeList that starts out holding every slot in index
// order (slots 0..n-1 linked before the first access), a FIFO SharedList and
// the set counts of the set-associative ablation, kept in plain slices and
// maps. DMem hands out never-used slots lazily; it must agree with this step
// by step.
type eagerSlots struct {
	free, shared []int32 // FIFO queues of slot indices, head first
	slotOf       map[uint64]int32
	lineOf       []uint64 // slot → line it backs, while in use
	mapped       map[uint64]bool
	lines        int // directory entries in use
	dirCap       int
	sharedMin    int
	assoc        int   // 0: fully associative
	setCount     []int // set-associative mode: slots held per set

	slotAllocs, sharedReuses uint64
}

const (
	fuzzLineBytes = 128
	fuzzPageBytes = 512 // 4 lines per page
)

func newEagerSlots(dataCap, dirCap, sharedMin, assoc int) *eagerSlots {
	r := &eagerSlots{
		slotOf:    map[uint64]int32{},
		lineOf:    make([]uint64, dataCap),
		mapped:    map[uint64]bool{},
		dirCap:    dirCap,
		sharedMin: sharedMin,
		assoc:     assoc,
	}
	for i := range dataCap {
		r.free = append(r.free, int32(i))
	}
	if assoc > 0 {
		r.setCount = make([]int, dataCap/assoc)
	}
	return r
}

func (r *eagerSlots) set(line uint64) int {
	return int((line / fuzzLineBytes) % uint64(len(r.setCount)))
}

// mapPage reports whether MapPage must accept page.
func (r *eagerSlots) mapPage(page uint64) bool {
	if r.mapped[page] || page/fuzzLineBytes+fuzzPageBytes/fuzzLineBytes > 1<<32 ||
		r.lines+fuzzPageBytes/fuzzLineBytes > r.dirCap {
		return false
	}
	r.mapped[page] = true
	r.lines += fuzzPageBytes / fuzzLineBytes
	return true
}

// unmapPage releases the page's slots to the FreeList tail in line order.
func (r *eagerSlots) unmapPage(page uint64) {
	for l := page; l < page+fuzzPageBytes; l += fuzzLineBytes {
		r.release(l)
	}
	delete(r.mapped, page)
	r.lines -= fuzzPageBytes / fuzzLineBytes
}

func (r *eagerSlots) attach(line uint64, s int32) {
	r.slotOf[line] = s
	r.lineOf[s] = line
	if r.assoc > 0 {
		r.setCount[r.set(line)]++
	}
	r.slotAllocs++
}

// drop takes slot s, removed from the SharedList, away from its line and
// returns that line.
func (r *eagerSlots) drop(s int32) uint64 {
	victim := r.lineOf[s]
	delete(r.slotOf, victim)
	if r.assoc > 0 {
		r.setCount[r.set(victim)]--
	}
	r.sharedReuses++
	return victim
}

// reuseInSet moves the first same-set slot of the SharedList's first 64 to
// line and returns the line that lost it.
func (r *eagerSlots) reuseInSet(line uint64) (uint64, bool) {
	for k, s := range r.shared[:min(64, len(r.shared))] {
		if r.set(r.lineOf[s]) == r.set(line) {
			r.shared = slices.Delete(r.shared, k, k+1)
			victim := r.drop(s)
			r.attach(line, s)
			return victim, true
		}
	}
	return 0, false
}

// ensure is EnsureSlot: the FreeList head, else the SharedList head above
// the threshold (in set-associative mode: a free slot while the line's set
// has room, else a same-set SharedList slot).
func (r *eagerSlots) ensure(line uint64) (res AllocResult, victim uint64, dropped bool) {
	if _, ok := r.slotOf[line]; ok {
		return AllocFree, 0, false
	}
	if r.assoc > 0 {
		if r.setCount[r.set(line)] < r.assoc && len(r.free) > 0 {
			r.attach(line, r.popFree())
			return AllocFree, 0, false
		}
		if victim, ok := r.reuseInSet(line); ok {
			return AllocSharedReuse, victim, true
		}
		return AllocFailed, 0, false
	}
	if len(r.free) > 0 {
		r.attach(line, r.popFree())
		return AllocFree, 0, false
	}
	if len(r.shared) > r.sharedMin {
		s := r.shared[0]
		r.shared = r.shared[1:]
		victim := r.drop(s)
		r.attach(line, s)
		return AllocSharedReuse, victim, true
	}
	return AllocFailed, 0, false
}

// force is ForceSlot: the SharedList head whatever the threshold (in
// set-associative mode, ensure).
func (r *eagerSlots) force(line uint64) (ok bool, victim uint64, dropped bool) {
	if r.assoc > 0 {
		res, victim, dropped := r.ensure(line)
		return res != AllocFailed, victim, dropped
	}
	if _, held := r.slotOf[line]; held {
		return true, 0, false
	}
	if len(r.shared) == 0 {
		return false, 0, false
	}
	s := r.shared[0]
	r.shared = r.shared[1:]
	victim = r.drop(s)
	r.attach(line, s)
	return true, victim, true
}

func (r *eagerSlots) popFree() int32 {
	s := r.free[0]
	r.free = r.free[1:]
	return s
}

func (r *eagerSlots) release(line uint64) {
	s, ok := r.slotOf[line]
	if !ok {
		return
	}
	r.unlinkShared(line)
	delete(r.slotOf, line)
	if r.assoc > 0 {
		r.setCount[r.set(line)]--
	}
	r.free = append(r.free, s)
}

func (r *eagerSlots) linkShared(line uint64) {
	if s := r.slotOf[line]; !slices.Contains(r.shared, s) {
		r.shared = append(r.shared, s)
	}
}

func (r *eagerSlots) unlinkShared(line uint64) {
	s, ok := r.slotOf[line]
	if !ok {
		return
	}
	if k := slices.Index(r.shared, s); k >= 0 {
		r.shared = slices.Delete(r.shared, k, k+1)
	}
}

// fuzzPages are the pages FuzzDMemSlots' ops address: six low pages, the
// last page whose line numbers fit the Pointer array's uint32 back pointer,
// and the first page past it, which MapPage must refuse.
var fuzzPages = []uint64{0, 512, 1024, 1536, 2048, 2560, 1<<39 - fuzzPageBytes, 1 << 39}

// FuzzDMemSlots drives MapPage, UnmapPage, EnsureSlot, ReleaseSlot,
// LinkShared, UnlinkShared and ForceSlot on a small DMem and on eagerSlots.
// The first byte picks the geometry: fully associative or 2-/4-way
// set-associative, 4–16 Data slots, twice as many directory entries, and a
// SharedList threshold of 0–3. Every following byte pair is one op and its
// argument (page, line within the page, and the P-node that becomes master).
// After every op the slot each line holds, every allocation's result and
// victim, FreeLen, SharedLen and the allocation counters must match the
// reference, and CheckInvariants, AuditFreeList and AuditEntry of every
// mapped line must pass. Directory states are set the way the protocol sets
// them, so the invariants are the protocol's own.
func FuzzDMemSlots(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := data[0]
		dataCap := 4 * (1 + int(cfg>>2&3))
		assoc := [4]int{0, 0, 2, 4}[cfg&3]
		sharedMin := int(cfg >> 4 & 3)
		d := MustNewDMem(dataCap, 2*dataCap, fuzzLineBytes, fuzzPageBytes, sharedMin)
		if assoc > 0 {
			d.ConfigureSetAssoc(assoc)
		}
		ref := newEagerSlots(dataCap, 2*dataCap, sharedMin, assoc)
		ops := data[1:]
		for k := 0; k+1 < len(ops) && k < 1024; k += 2 {
			op, arg := ops[k], ops[k+1]
			page := fuzzPages[int(arg>>2)%len(fuzzPages)]
			line := page + uint64(arg&3)*fuzzLineBytes
			master := int32(arg >> 5 & 3)
			e := d.Entry(line)
			switch op % 7 {
			case 0:
				want := ref.mapPage(page)
				if err := d.MapPage(page); (err == nil) != want {
					t.Fatalf("op %d: MapPage(%#x) = %v, reference accepts: %v", k/2, page, err, want)
				}
			case 1:
				if e == nil {
					continue
				}
				// Recall every line first, as pageout does.
				d.PageLines(page, func(l uint64, e *DirEntry) {
					d.UnlinkShared(e)
					ref.unlinkShared(l)
					e.State, e.Master = DirHome, HomeMaster
					e.Sharers.Clear()
				})
				if err := d.UnmapPage(page); err != nil {
					t.Fatalf("op %d: %v", k/2, err)
				}
				ref.unmapPage(page)
			case 2, 6:
				if e == nil {
					continue
				}
				if e.State == DirDirty { // the line comes home (a write-back)
					e.State, e.Master = DirHome, HomeMaster
					e.Sharers.Clear()
				}
				var ok, refOK, refDropped bool
				var dropped *DirEntry
				var victim uint64
				if op%7 == 2 {
					var res, refRes AllocResult
					res, dropped = d.EnsureSlot(line, e)
					refRes, victim, refDropped = ref.ensure(line)
					if res != refRes {
						t.Fatalf("op %d: EnsureSlot(%#x) = %v, reference %v", k/2, line, res, refRes)
					}
					ok, refOK = res != AllocFailed, refRes != AllocFailed
				} else {
					ok, dropped = d.ForceSlot(line, e)
					refOK, victim, refDropped = ref.force(line)
					if ok != refOK {
						t.Fatalf("op %d: ForceSlot(%#x) = %v, reference %v", k/2, line, ok, refOK)
					}
				}
				if (dropped != nil) != refDropped || refDropped && dropped != d.Entry(victim) {
					t.Fatalf("op %d: slot for %#x dropped %p, reference dropped %v line %#x (entry %p)",
						k/2, line, dropped, refDropped, victim, d.Entry(victim))
				}
				// A home copy of a line mastered elsewhere is droppable.
				if ok && e.State == DirShared && e.Master != HomeMaster {
					d.LinkShared(e)
					ref.linkShared(line)
				}
			case 3:
				if e == nil {
					continue
				}
				d.ReleaseSlot(e)
				ref.release(line)
				e.State, e.Master = DirDirty, master
				e.Sharers.Clear()
			case 4:
				if e == nil || !e.HasCopy() {
					continue
				}
				e.State, e.Master = DirShared, master
				e.Sharers.Add(int(master))
				d.LinkShared(e)
				ref.linkShared(line)
			case 5:
				if e == nil {
					continue
				}
				if e.HasCopy() {
					e.Master = HomeMaster
				}
				d.UnlinkShared(e)
				ref.unlinkShared(line)
			}
			checkAgainstEager(t, k/2, d, ref)
		}
	})
}

// checkAgainstEager compares d with the reference and runs d's own checks.
func checkAgainstEager(t *testing.T, step int, d *DMem, ref *eagerSlots) {
	t.Helper()
	if d.FreeLen() != len(ref.free) || d.SharedLen() != len(ref.shared) {
		t.Fatalf("op %d: FreeLen %d SharedLen %d, reference %d and %d", step, d.FreeLen(), d.SharedLen(), len(ref.free), len(ref.shared))
	}
	if d.Stats.SlotAllocs != ref.slotAllocs || d.Stats.SharedReuses != ref.sharedReuses {
		t.Fatalf("op %d: %d slot allocs and %d reuses, reference %d and %d", step, d.Stats.SlotAllocs, d.Stats.SharedReuses, ref.slotAllocs, ref.sharedReuses)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("op %d: CheckInvariants: %v", step, err)
	}
	if err := d.AuditFreeList(); err != nil {
		t.Fatalf("op %d: AuditFreeList: %v", step, err)
	}
	for _, page := range fuzzPages {
		d.PageLines(page, func(line uint64, e *DirEntry) {
			want, held := ref.slotOf[line]
			if !held {
				want = nilPtr
			}
			if e.LocalPtr != want {
				t.Fatalf("op %d: line %#x holds slot %d, reference %d", step, line, e.LocalPtr, want)
			}
			if err := d.AuditEntry(line, e); err != nil {
				t.Fatalf("op %d: AuditEntry: %v", step, err)
			}
		})
	}
}
