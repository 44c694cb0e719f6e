// Package frame is what the three coherence machines share: the PIM chips'
// SRAM caches and local memories, the mesh, the observers (trace, spans,
// profile), the coherence auditor's bookkeeping, the event counters, the
// node resources' calendars and a page-keyed directory. AGG (internal/core),
// CC-NUMA (internal/numa) and Flat COMA (internal/coma) each embed one Frame
// and supply only their protocol: access, auditAccess and the resource
// classes they register.
package frame

import (
	"fmt"
	"math/bits"

	"pimdsm/internal/cache"
	"pimdsm/internal/hashmap"
	"pimdsm/internal/mesh"
	"pimdsm/internal/obs"
	"pimdsm/internal/proto"
	"pimdsm/internal/sim"
	"pimdsm/internal/stats"
)

// Config sizes a frame.
type Config struct {
	// Procs is the number of processor nodes, each with its own caches
	// (and local memory, where the machine has one); they carry node IDs
	// 0..Procs-1. Nodes counts every mesh endpoint: Procs plus any
	// directory-only nodes, which take IDs Procs..Nodes-1 in traces and
	// profiles.
	Procs, Nodes int

	LineBytes uint64
	PageBytes uint64

	Caches proto.CacheGeom
	Timing proto.Timing
	Mesh   mesh.Config // Width/Height 0 means: derive from Nodes
}

// Frame holds one machine's shared parts. The protocol code reads and
// drives the exported fields directly.
type Frame struct {
	Net *mesh.Mesh
	St  stats.Machine

	Trace *obs.Trace
	Spans *obs.Spans
	Prof  *obs.Profile

	// Caches are the processor nodes' SRAM cache hierarchies, Bank their
	// local memories' DRAM interfaces and Mem their tagged local memories
	// (nil on a machine whose local memory is not a cache, such as
	// CC-NUMA).
	Caches []*proto.CacheSet
	Bank   []sim.Resource
	Mem    []*cache.LocalMemory

	// procs lists the processor nodes 0..Procs-1, the node set sharer
	// vectors expand against; targets is the buffer Sharers reuses.
	procs, targets []int

	timing    proto.Timing
	hitLat    [proto.NumLatClasses]sim.Time // L1 and L2 hit latency by class
	nodes     int
	lineBytes uint64
	pageBytes uint64
	lineShift uint

	// classes are the per-node resource calendars registered by
	// NewResources, for SetFloor and FinishProfile.
	classes []resourceClass

	audit       bool
	auditViol   uint64
	auditSample []string
}

// resourceClass is one kind of node resource: resource i belongs to profile
// node base+i and is folded into the profile as res.
type resourceClass struct {
	rs   []sim.Resource
	base int
	res  obs.NodeRes
}

// Unprofiled marks a resource class that gets the scheduler floor but whose
// accounting FinishProfile does not fold into the profile (local memory
// banks, which mostly serve their own CPU rather than protocol duty).
const Unprofiled = obs.NumNodeRes

// NoMark is the phase Hop takes for a side of the message it does not mark.
const NoMark = obs.NumPhases

// maxAuditSamples bounds the diagnostic strings the auditor keeps.
const maxAuditSamples = 8

// New builds a frame: the mesh, sized near-square when cfg.Mesh leaves it
// open, and the processor nodes' caches and memory banks. Observers start
// detached.
func New(cfg Config) (Frame, error) {
	mc := cfg.Mesh
	if mc.Width == 0 || mc.Height == 0 {
		mc.Width, mc.Height = meshDims(cfg.Nodes)
	}
	if mc.Width*mc.Height < cfg.Nodes {
		return Frame{}, fmt.Errorf("frame: mesh %dx%d too small for %d nodes", mc.Width, mc.Height, cfg.Nodes)
	}
	net, err := mesh.New(mc)
	if err != nil {
		return Frame{}, err
	}
	f := Frame{
		Net:       net,
		Trace:     obs.Nop(),
		Spans:     obs.NopSpans(),
		Prof:      obs.NopProfile(),
		Caches:    make([]*proto.CacheSet, cfg.Procs),
		procs:     make([]int, cfg.Procs),
		timing:    cfg.Timing,
		hitLat:    [proto.NumLatClasses]sim.Time{proto.LatL1: cfg.Timing.L1Lat, proto.LatL2: cfg.Timing.L2Lat},
		nodes:     cfg.Nodes,
		lineBytes: cfg.LineBytes,
		pageBytes: cfg.PageBytes,
		lineShift: uint(bits.TrailingZeros64(cfg.LineBytes)),
	}
	for i := range f.Caches {
		if f.Caches[i], err = proto.NewCacheSet(cfg.Caches, cfg.LineBytes); err != nil {
			return Frame{}, err
		}
		f.procs[i] = i
	}
	// Local memory banks mostly serve their own CPU, not protocol duty:
	// they get the floor but stay out of the profile.
	f.Bank = f.NewResources(cfg.Procs, 0, Unprofiled)
	return f, nil
}

// meshDims picks a near-square mesh for n endpoints, preferring width 8
// (the paper's machines are 8-wide meshes: 8x8 for 1/1AGG, 8x6 for 1/2AGG,
// 8x5 for 1/4AGG, 8x4 for NUMA/COMA).
func meshDims(n int) (w, h int) {
	w = 8
	if n < 8 {
		w = n
	}
	h = (n + w - 1) / w
	return w, h
}

// Base returns the frame itself, so a caller holding a machine can reach
// the shared parts without knowing which machine it is.
func (f *Frame) Base() *Frame { return f }

// Stats returns the machine's event counters.
func (f *Frame) Stats() *stats.Machine { return &f.St }

// Mesh returns the interconnect.
func (f *Frame) Mesh() *mesh.Mesh { return f.Net }

// AlignLine returns the address of the line containing addr.
func (f *Frame) AlignLine(addr uint64) uint64 { return addr &^ (f.lineBytes - 1) }

// PageOf returns the address of the page containing addr.
func (f *Frame) PageOf(addr uint64) uint64 { return addr &^ (f.pageBytes - 1) }

// SetTrace routes protocol trace events to t (nil disables), on the machine
// and its mesh. Processor-node events carry node IDs 0..Procs-1, directory
// nodes' events Procs and up.
func (f *Frame) SetTrace(t *obs.Trace) {
	if t == nil {
		t = obs.Nop()
	}
	f.Trace = t
	f.Net.SetTrace(t)
}

// SetSpans routes transaction-span phase marks to s (nil disables), on the
// machine and its mesh. Spans are record-only: timing never reads them.
func (f *Frame) SetSpans(s *obs.Spans) {
	if s == nil {
		s = obs.NopSpans()
	}
	f.Spans = s
	f.Net.SetSpans(s)
}

// SetProfile routes handler-class cycle attribution to p (nil disables), on
// the machine and its mesh. Profiling is record-only: timing never reads it.
func (f *Frame) SetProfile(p *obs.Profile) {
	if p == nil {
		p = obs.NopProfile()
	}
	p.EnsureNodes(f.nodes)
	f.Prof = p
	f.Net.SetProfile(p)
}

// NewResources makes one class of node resources, n calendars that belong
// to profile nodes base..base+n-1, and registers them: SetFloor covers them
// and FinishProfile folds their accounting into the profile as res, unless
// res is Unprofiled.
func (f *Frame) NewResources(n, base int, res obs.NodeRes) []sim.Resource {
	rs := make([]sim.Resource, n)
	f.classes = append(f.classes, resourceClass{rs, base, res})
	return rs
}

// SetFloor attaches the scheduler floor to every registered resource
// calendar and the mesh links, so they drop the past no request can reach
// (nil detaches). Timing is unaffected.
func (f *Frame) SetFloor(floor *sim.Time) {
	for _, c := range f.classes {
		sim.SetFloors(floor, c.rs)
	}
	f.Net.SetFloor(floor)
}

// FinishProfile folds the profiled resources' own accounting — the
// cross-check side of the profiler's Σclass == busy invariant — and the
// mesh links' into the attached profile. Cold path, called once after a
// run.
func (f *Frame) FinishProfile() {
	if !f.Prof.On() {
		return
	}
	for _, c := range f.classes {
		if c.res == Unprofiled {
			continue
		}
		for i := range c.rs {
			b, a, w := c.rs[i].Utilization()
			f.Prof.SetResource(c.base+i, c.res, b, a, w, c.rs[i].FreeAt())
		}
	}
	f.Net.FoldProfile(f.Prof)
}

// SetAudit enables the per-transaction coherence audit: after every access
// retires, the machine checks the accessed line against its protocol's
// invariants. The audit only reads, so results stay bit-identical.
func (f *Frame) SetAudit(on bool) { f.audit = on }

// Auditing reports whether the audit is on.
func (f *Frame) Auditing() bool { return f.audit }

// AuditReport returns the violation count and up to maxAuditSamples
// diagnostics collected since the machine was built.
func (f *Frame) AuditReport() (uint64, []string) { return f.auditViol, f.auditSample }

// AuditFail records one violation.
func (f *Frame) AuditFail(format string, args ...any) {
	f.auditViol++
	if len(f.auditSample) < maxAuditSamples {
		f.auditSample = append(f.auditSample, fmt.Sprintf(format, args...))
	}
}

// Cached looks addr up in processor p's SRAM caches at now. On a hit, hit
// is true and done and class are the L1 or L2 completion time and class.
func (f *Frame) Cached(now sim.Time, p int, addr uint64, write bool) (done sim.Time, class proto.LatClass, hit bool) {
	hit, class, _ = f.Caches[p].Lookup(addr, write)
	return now + f.hitLat[class], class, hit
}

// LocalMem accesses addr in processor p's tagged local memory at now and
// returns when the memory answers and whether it holds the line. A tag
// check that misses is resolved on chip. When the copy serves the access —
// any valid copy for a read, a dirty one for a write — it fills p's caches,
// and served is true: the processor never leaves the node, whatever the
// line's home.
func (f *Frame) LocalMem(now sim.Time, p int, addr uint64, write bool) (done sim.Time, hit, served bool) {
	st, hit, onChip := f.Mem[p].Access(addr)
	lat := f.timing.MemOffChip
	if onChip || !hit {
		lat = f.timing.MemOnChip
	}
	done = f.Bank[p].Acquire(now, f.timing.MemBankOcc) + lat
	if hit && (!write || st == cache.Dirty) {
		f.Caches[p].Fill(addr, st == cache.Dirty)
		return done, true, true
	}
	return done, hit, false
}

// Install puts a fetched line into processor p's local memory in state st
// and fills p's caches, writable or not. It returns the line the local
// memory displaced, its cached sublines dropped, and whether that victim is
// owned: an owned victim is the protocol's to send elsewhere, a plain shared
// one simply vanishes.
func (f *Frame) Install(p int, addr uint64, st cache.State, writable bool) (v cache.Victim, owned bool) {
	v = f.Mem[p].Insert(f.AlignLine(addr), st, SharedFirst)
	f.Caches[p].Fill(addr, writable)
	if !v.Valid() {
		return v, false
	}
	f.Caches[p].InvalidateMemLine(v.Addr)
	return v, v.State.Owned()
}

// MemLat is the latency for processor q's memory controller to read a line
// its local memory holds, depending on on-/off-chip placement.
func (f *Frame) MemLat(q int, line uint64) sim.Time {
	if _, hit, onChip := f.Mem[q].Lookup(line); hit && onChip {
		return f.timing.MemOnChip
	}
	return f.timing.MemOffChip
}

// SharedFirst orders local-memory replacement victims: plain shared copies
// go first (they can be silently dropped and cheaply refetched), then owned
// lines, whose displacement costs a write-back or an injection. Keeping
// owned lines parked in local memories is what lets AGG run at high memory
// pressure (Figure 8's large Dirty-in-P population); it is also the paper's
// COMA policy of replacing non-master lines first.
func SharedFirst(s cache.State) int {
	if s == cache.Shared {
		return 0
	}
	return 1
}

// Begin opens the span of an access by node p issued at now.
func (f *Frame) Begin(now sim.Time, p int, addr uint64, write bool) {
	if f.Spans.On() {
		f.Spans.Begin(now, int32(p), f.AlignLine(addr), write)
	}
}

// Retire closes the span of an access that Begin opened at now and that
// completed at done in class, and counts and traces it.
func (f *Frame) Retire(now, done sim.Time, p int, addr uint64, write bool, class proto.LatClass) {
	if f.Spans.On() {
		f.Spans.End(done, class)
	}
	if write {
		f.St.Write(class, done-now)
	} else {
		f.St.Read(class, done-now)
	}
	if f.Trace.On() {
		k := obs.EvRead
		if write {
			k = obs.EvWrite
		}
		f.Trace.Emit(k, now, done-now, int32(p), f.AlignLine(addr), uint64(class))
	}
}

// Hop sends a message of the given size from mesh node src to dst at t and
// returns its arrival. It marks phase before at t, as the message leaves,
// and phase after at the arrival; NoMark skips either mark. The marks land
// in the order and at the timestamps of a Mark, Send, Mark sequence; the
// mesh's queueing attribution while the message travels is independent of
// them.
func (f *Frame) Hop(t sim.Time, src, dst int, bytes uint64, before, after obs.Phase) sim.Time {
	if before != NoMark && f.Spans.On() {
		f.Spans.Mark(before, t)
	}
	at := f.Net.Send(t, src, dst, bytes)
	if after != NoMark && f.Spans.On() {
		f.Spans.Mark(after, at)
	}
	return at
}

// Inval invalidates line at processor node q — its local memory, if the
// machine has one, and its caches — counts the invalidation and traces it
// at time at.
func (f *Frame) Inval(at sim.Time, q int, line uint64) {
	if f.Mem != nil {
		f.Mem[q].Invalidate(line)
	}
	f.Caches[q].InvalidateMemLine(line)
	f.St.Invalidations++
	if f.Trace.On() {
		f.Trace.Emit(obs.EvInval, at, 0, int32(q), line, 0)
	}
}

// Sharers returns the processor nodes v records, leaving out self (-1: none
// left out), in a buffer the frame reuses: the slice is valid until the next
// call, so a caller finishes with it before it asks again.
func (f *Frame) Sharers(v *proto.PtrVec, self int) []int {
	f.targets = v.Targets(f.targets[:0], f.procs, self)
	return f.targets
}

// Page is a touched page's directory record: its home node, fixed at first
// touch, and the entries of all its lines, allocated together then. A block
// never moves, so an entry pointer stays valid.
type Page[E any] struct {
	Home  int
	Lines []E
}

// Dir is a home directory kept by page: one probe finds a page's home node
// and its lines' entries.
type Dir[E any] struct {
	pages     hashmap.Map[Page[E]]
	blank     E // a line's entry before its first access
	pageBytes uint64
	lineShift uint
	touches   *uint64
}

// NewDir returns an empty directory for f's pages whose entries start out
// as blank. It counts first touches in f's stats, so f must be the frame
// the machine keeps.
func NewDir[E any](f *Frame, blank E) Dir[E] {
	return Dir[E]{blank: blank, pageBytes: f.pageBytes, lineShift: f.lineShift, touches: &f.St.FirstTouches}
}

// Page returns the record of addr's page, homing the page at p on first
// touch.
func (d *Dir[E]) Page(p int, addr uint64) Page[E] {
	page := addr &^ (d.pageBytes - 1)
	pg, ok := d.pages.Get(page)
	if !ok {
		pg = Page[E]{Home: p, Lines: make([]E, d.pageBytes>>d.lineShift)}
		for i := range pg.Lines {
			pg.Lines[i] = d.blank
		}
		d.pages.Put(page, pg)
		*d.touches++
	}
	return pg
}

// Lookup returns the record of addr's page, if it has been touched.
func (d *Dir[E]) Lookup(addr uint64) (Page[E], bool) {
	return d.pages.Get(addr &^ (d.pageBytes - 1))
}

// Entry returns the entry of addr's line in pg, its page's record.
func (d *Dir[E]) Entry(pg Page[E], addr uint64) *E {
	return &pg.Lines[(addr&(d.pageBytes-1))>>d.lineShift]
}

// Range calls fn for every touched page until fn returns false.
func (d *Dir[E]) Range(fn func(page uint64, pg Page[E]) bool) { d.pages.Range(fn) }
