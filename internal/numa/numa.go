// Package numa implements the CC-NUMA baseline of the paper's evaluation
// (§3): each node has the same PIM processor chip as AGG but with the
// directory controller on chip, plain (untagged) local memory holding the
// pages placed there by first touch, and only the SRAM caches (L1/L2) for
// remote data. At the home node the directory access is overlapped with the
// memory access, so a locally-satisfied transaction pays no directory
// latency. The hardware protocol engine runs at 70% of AGG's software
// handler costs.
package numa

import (
	"fmt"
	"math/bits"

	"pimdsm/internal/cache"
	"pimdsm/internal/core"
	"pimdsm/internal/hashmap"
	"pimdsm/internal/mesh"
	"pimdsm/internal/obs"
	"pimdsm/internal/proto"
	"pimdsm/internal/sim"
	"pimdsm/internal/stats"
)

// DirState is the home directory state of a memory line.
type dirState uint8

const (
	dirHome dirState = iota // no cached copies recorded
	dirShared
	dirDirty
)

type dirEntry struct {
	state   dirState
	owner   int32 // when dirDirty
	sharers proto.PtrVec
}

// homePage is a touched page's record: its home node, fixed at first touch,
// and the directory entries of all its lines, allocated together then. A
// block never moves, so an entry pointer stays valid.
type homePage struct {
	home  int
	lines []dirEntry
}

// Config describes a CC-NUMA machine.
type Config struct {
	Nodes int

	LineBytes uint64
	PageBytes uint64

	// MemBytes is each node's local DRAM; OnChipBytes of it is on chip and
	// is managed as a hardware cache of the node's own pages (the [18]
	// scheme), determining the 37- vs 57-cycle local latency.
	MemBytes    uint64
	OnChipBytes uint64

	Caches proto.CacheGeom
	Timing proto.Timing
	Costs  proto.HandlerCosts
	Mesh   mesh.Config
}

// DefaultConfig returns the Table 1 NUMA configuration: double-width links
// (same bisection bandwidth as a 1/1 AGG with twice the nodes) and hardware
// protocol costs.
func DefaultConfig(nodes int, memBytes uint64, l1, l2 uint64) Config {
	mc := mesh.DefaultConfig(0, 0)
	mc.BytesPerCycle *= 2
	return Config{
		Nodes:       nodes,
		LineBytes:   128,
		PageBytes:   4096,
		MemBytes:    memBytes,
		OnChipBytes: memBytes / 2,
		Caches:      proto.DefaultCacheGeom(l1, l2),
		Timing:      proto.DefaultTiming(128),
		Costs:       proto.AGGCosts().Scale(proto.HardwareScale),
		Mesh:        mc,
	}
}

// Machine is the CC-NUMA engine.
type Machine struct {
	cfg Config
	net *mesh.Mesh

	caches []*proto.CacheSet
	onchip []*cache.SetAssoc // presence tracker: which local lines are on chip
	hproc  []sim.Resource    // on-chip directory/protocol engine
	bank   []sim.Resource

	// pages is the home directory, kept by page: one probe finds a page's
	// home node and its lines' entries.
	pages     hashmap.Map[homePage]
	lineShift uint // log2 LineBytes: a line's index in its page's block

	allNodes []int
	st       stats.Machine
	trace    *obs.Trace
	spans    *obs.Spans
	prof     *obs.Profile

	audit       bool
	auditViol   uint64
	auditSample []string
}

// New builds a NUMA machine.
func New(cfg Config) (*Machine, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("numa: need at least one node")
	}
	mc := cfg.Mesh
	if mc.Width == 0 || mc.Height == 0 {
		mc.Width = 8
		if cfg.Nodes < 8 {
			mc.Width = cfg.Nodes
		}
		mc.Height = (cfg.Nodes + mc.Width - 1) / mc.Width
	}
	net, err := mesh.New(mc)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:       cfg,
		net:       net,
		lineShift: uint(bits.TrailingZeros64(cfg.LineBytes)),
		trace:     obs.Nop(),
		spans:     obs.NopSpans(),
		prof:      obs.NopProfile(),
	}
	m.caches = make([]*proto.CacheSet, cfg.Nodes)
	m.onchip = make([]*cache.SetAssoc, cfg.Nodes)
	m.hproc = make([]sim.Resource, cfg.Nodes)
	m.bank = make([]sim.Resource, cfg.Nodes)
	for i := range m.caches {
		cs, err := proto.NewCacheSet(cfg.Caches, cfg.LineBytes)
		if err != nil {
			return nil, err
		}
		m.caches[i] = cs
		oc, err := cache.New(cfg.OnChipBytes, cfg.LineBytes, 4)
		if err != nil {
			return nil, err
		}
		m.onchip[i] = oc
	}
	m.allNodes = make([]int, cfg.Nodes)
	for i := range m.allNodes {
		m.allNodes[i] = i
	}
	return m, nil
}

// LineBytes returns the coherence unit size.
func (m *Machine) LineBytes() uint64 { return m.cfg.LineBytes }

// Stats returns the machine's counters.
func (m *Machine) Stats() *stats.Machine { return &m.st }

// Mesh returns the interconnect.
func (m *Machine) Mesh() *mesh.Mesh { return m.net }

// SetTrace routes protocol trace events to t; nil disables.
func (m *Machine) SetTrace(t *obs.Trace) {
	if t == nil {
		t = obs.Nop()
	}
	m.trace = t
	m.net.SetTrace(t)
}

// SetSpans routes transaction-span phase marks to s (nil disables), on the
// machine and its mesh.
func (m *Machine) SetSpans(s *obs.Spans) {
	if s == nil {
		s = obs.NopSpans()
	}
	m.spans = s
	m.net.SetSpans(s)
}

// SetProfile routes handler-class cycle attribution to p (nil disables), on
// the machine and its mesh. The home engine's occupancy is covered; local
// memory banks are not (they mostly serve the local CPU, not protocol duty).
func (m *Machine) SetProfile(p *obs.Profile) {
	if p == nil {
		p = obs.NopProfile()
	}
	p.EnsureNodes(m.cfg.Nodes)
	m.prof = p
	m.net.SetProfile(p)
}

// SetFloor attaches the scheduler floor to every resource calendar — home
// engines, memory banks and the mesh links — so they drop the past no
// request can reach (nil detaches). Timing is unaffected.
func (m *Machine) SetFloor(floor *sim.Time) {
	sim.SetFloors(floor, m.hproc, m.bank)
	m.net.SetFloor(floor)
}

// FinishProfile folds each home engine's resource accounting into the
// attached profile. Cold path, called once after a run.
func (m *Machine) FinishProfile() {
	if !m.prof.On() {
		return
	}
	for h := range m.hproc {
		b, a, w := m.hproc[h].Utilization()
		m.prof.SetResource(h, obs.ResProc, b, a, w, m.hproc[h].FreeAt())
	}
	m.net.FoldProfile(m.prof)
}

// SetAudit enables the per-transaction coherence audit of the accessed
// line's directory entry. Read-only: results stay bit-identical.
func (m *Machine) SetAudit(on bool) { m.audit = on }

// AuditReport returns the violation count and bounded diagnostics.
func (m *Machine) AuditReport() (uint64, []string) { return m.auditViol, m.auditSample }

const maxAuditSamples = 8

func (m *Machine) auditFail(format string, args ...any) {
	m.auditViol++
	if len(m.auditSample) < maxAuditSamples {
		m.auditSample = append(m.auditSample, fmt.Sprintf(format, args...))
	}
}

// auditAccess checks the accessed line's home directory entry against the
// protocol invariants. The dirty owner's caches are deliberately not
// cross-checked: after a partial L2 eviction the home frame is
// authoritative while the directory still records an owner (the degenerate
// case remoteRead folds into clean-at-home).
func (m *Machine) auditAccess(addr uint64) {
	line := m.alignLine(addr)
	pg, ok := m.pages.Get(m.pageOf(line))
	if !ok {
		m.auditFail("line %#x: no directory entry after access", line)
		return
	}
	e := m.entry(pg, line)
	switch e.state {
	case dirDirty:
		if e.owner < 0 || int(e.owner) >= m.cfg.Nodes {
			m.auditFail("dirty line %#x has invalid owner %d", line, e.owner)
		}
		if !e.sharers.Empty() {
			m.auditFail("dirty line %#x has sharers recorded", line)
		}
	case dirShared:
		if e.owner != -1 {
			m.auditFail("shared line %#x records owner %d", line, e.owner)
		}
		if e.sharers.Empty() {
			m.auditFail("shared line %#x has no sharers", line)
		}
	case dirHome:
		if e.owner != -1 || !e.sharers.Empty() {
			m.auditFail("idle line %#x retains owner %d or sharers", line, e.owner)
		}
	default:
		m.auditFail("line %#x in unknown directory state %d", line, e.state)
	}
}

func (m *Machine) alignLine(addr uint64) uint64 { return addr &^ (m.cfg.LineBytes - 1) }
func (m *Machine) pageOf(addr uint64) uint64    { return addr &^ (m.cfg.PageBytes - 1) }

// page returns the record of addr's page, homing the page at p on first
// touch.
func (m *Machine) page(p int, addr uint64) homePage {
	page := m.pageOf(addr)
	pg, ok := m.pages.Get(page)
	if !ok {
		pg = homePage{home: p, lines: make([]dirEntry, m.cfg.PageBytes>>m.lineShift)}
		for i := range pg.lines {
			pg.lines[i].owner = -1
		}
		m.pages.Put(page, pg)
		m.st.FirstTouches++
	}
	return pg
}

// entry returns the directory entry of addr's line in pg, its page's record.
func (m *Machine) entry(pg homePage, addr uint64) *dirEntry {
	return &pg.lines[(addr&(m.cfg.PageBytes-1))>>m.lineShift]
}

// memLat is node n's local-memory latency for a line, tracking the on-chip
// portion as a cache of the node's own pages.
func (m *Machine) memLat(n int, line uint64) sim.Time {
	if _, hit := m.onchip[n].Access(line); hit {
		return m.cfg.Timing.MemOnChip
	}
	m.onchip[n].Insert(line, cache.Shared, nil)
	return m.cfg.Timing.MemOffChip
}

// Access services a load or store by node p at time now.
func (m *Machine) Access(now sim.Time, p int, addr uint64, write bool) (sim.Time, proto.LatClass) {
	if m.spans.On() {
		m.spans.Begin(now, int32(p), m.alignLine(addr), write)
	}
	done, class := m.access(now, p, addr, write)
	if m.spans.On() {
		m.spans.End(done, class)
	}
	if m.audit {
		m.auditAccess(addr)
	}
	if write {
		m.st.Write(class, done-now)
	} else {
		m.st.Read(class, done-now)
	}
	if m.trace.On() {
		k := obs.EvRead
		if write {
			k = obs.EvWrite
		}
		m.trace.Emit(k, now, done-now, int32(p), m.alignLine(addr), uint64(class))
	}
	return done, class
}

func (m *Machine) access(now sim.Time, p int, addr uint64, write bool) (sim.Time, proto.LatClass) {
	if hit, class, _ := m.caches[p].Lookup(addr, write); hit {
		lat := m.cfg.Timing.L1Lat
		if class == proto.LatL2 {
			lat = m.cfg.Timing.L2Lat
		}
		return now + lat, class
	}
	line := m.alignLine(addr)
	pg := m.page(p, addr)
	home, e := pg.home, m.entry(pg, line)
	upgrade := m.caches[p].Holds(addr) // readable copy present; ownership only

	if home == p {
		return m.localAccess(now, p, addr, line, e, write, upgrade)
	}
	if write {
		return m.remoteWrite(now, p, home, addr, line, e, upgrade)
	}
	return m.remoteRead(now, p, home, addr, line, e)
}

// localAccess handles accesses whose home is the requesting node: the
// directory lookup is overlapped with the memory access and adds no latency
// unless remote copies must be acted on.
func (m *Machine) localAccess(now sim.Time, p int, addr, line uint64, e *dirEntry, write, upgrade bool) (sim.Time, proto.LatClass) {
	ctrl := m.net.ControlBytes()
	data := m.net.DataBytes(m.cfg.LineBytes)

	if !write {
		if e.state == dirDirty && int(e.owner) != p {
			// Fetch from the remote owner: two node hops (p -> owner -> p).
			q := int(e.owner)
			rq := m.net.Send(now, p, q, ctrl)
			qs := m.bank[q].Acquire(rq, m.cfg.Timing.MemBankOcc)
			if m.spans.On() {
				m.spans.Mark(obs.PhaseNetRequest, rq)
				m.spans.Mark(obs.PhaseOwnerFetch, qs+m.cfg.Timing.L2Lat)
			}
			done := m.net.Send(qs+m.cfg.Timing.L2Lat, q, p, data)
			if m.spans.On() {
				m.spans.Mark(obs.PhaseNetReply, done)
			}
			m.caches[q].DowngradeMemLine(line)
			m.bank[p].Acquire(done, m.cfg.Timing.MemBankOcc) // home memory update
			e.state = dirShared
			e.owner = -1
			e.sharers.Add(q)
			e.sharers.Add(p)
			m.fill(done, p, addr, false)
			return done, proto.Lat2Hop
		}
		bs := m.bank[p].Acquire(now, m.cfg.Timing.MemBankOcc)
		done := bs + m.memLat(p, line)
		if e.state != dirDirty {
			e.sharers.Add(p)
			if e.state == dirHome {
				e.state = dirShared
			}
		}
		m.fill(done, p, addr, e.state == dirDirty && int(e.owner) == p)
		return done, proto.LatMem
	}

	// Local write.
	switch {
	case e.state == dirDirty && int(e.owner) != p:
		// Transfer ownership from the remote owner (2 hops).
		q := int(e.owner)
		rq := m.net.Send(now, p, q, ctrl)
		qs := m.bank[q].Acquire(rq, m.cfg.Timing.MemBankOcc)
		if m.spans.On() {
			m.spans.Mark(obs.PhaseNetRequest, rq)
			m.spans.Mark(obs.PhaseOwnerFetch, qs+m.cfg.Timing.L2Lat)
		}
		done := m.net.Send(qs+m.cfg.Timing.L2Lat, q, p, data)
		if m.spans.On() {
			m.spans.Mark(obs.PhaseNetReply, done)
		}
		m.caches[q].InvalidateMemLine(line)
		m.st.Invalidations++
		if m.trace.On() {
			m.trace.Emit(obs.EvInval, rq, 0, int32(q), line, 0)
		}
		e.owner = int32(p)
		e.sharers.Clear()
		m.fill(done, p, addr, true)
		return done, proto.Lat2Hop
	default:
		bs := m.bank[p].Acquire(now, m.cfg.Timing.MemBankOcc)
		done := bs + m.memLat(p, line)
		if m.spans.On() {
			// Memory access is issue-side work; the ack wait below retires.
			m.spans.Mark(obs.PhaseIssue, done)
		}
		// Invalidate remote sharers; their acks bound completion.
		for _, q := range e.sharers.Targets(nil, m.allNodes, p) {
			iv := m.net.Send(now, p, q, ctrl)
			m.caches[q].InvalidateMemLine(line)
			m.st.Invalidations++
			if m.trace.On() {
				m.trace.Emit(obs.EvInval, iv, 0, int32(q), line, 0)
			}
			if ack := m.net.Send(iv, q, p, ctrl); ack > done {
				done = ack
			}
		}
		e.state = dirDirty
		e.owner = int32(p)
		e.sharers.Clear()
		m.fill(done, p, addr, true)
		return done, proto.LatMem
	}
}

// remoteRead handles a read whose home is another node.
func (m *Machine) remoteRead(now sim.Time, p, h int, addr, line uint64, e *dirEntry) (sim.Time, proto.LatClass) {
	ctrl := m.net.ControlBytes()
	data := m.net.DataBytes(m.cfg.LineBytes)
	arrive := m.net.Send(now, p, h, ctrl)
	if m.spans.On() {
		m.spans.Mark(obs.PhaseNetRequest, arrive)
	}
	hs := m.hproc[h].Acquire(arrive, m.cfg.Costs.ReadOcc)
	m.prof.Node(h, obs.ResProc, obs.HCDirLookup, m.cfg.Costs.ReadOcc)

	var done sim.Time
	var class proto.LatClass
	switch {
	case e.state == dirDirty && int(e.owner) == h:
		// The home's own caches hold the line dirty; it supplies and its
		// memory is updated in place.
		m.caches[h].DowngradeMemLine(line)
		m.bank[h].Acquire(hs, m.cfg.Timing.MemBankOcc)
		if m.spans.On() {
			m.spans.Mark(obs.PhaseDirOcc, hs+m.cfg.Costs.ReadLat)
		}
		done = m.net.Send(hs+m.cfg.Costs.ReadLat, h, p, data)
		e.state = dirShared
		e.sharers.Add(h)
		class = proto.Lat2Hop
	case e.state == dirDirty && int(e.owner) != p:
		// 3-hop: forward to owner; owner supplies requester and writes the
		// line back to the home (sharing write-back).
		q := int(e.owner)
		if m.spans.On() {
			m.spans.Mark(obs.PhaseDirOcc, hs+m.cfg.Costs.ReadLat)
		}
		fwd := m.net.Send(hs+m.cfg.Costs.ReadLat, h, q, ctrl)
		qs := m.bank[q].Acquire(fwd, m.cfg.Timing.MemBankOcc)
		sendT := qs + m.cfg.Timing.L2Lat
		if m.spans.On() {
			m.spans.Mark(obs.PhaseOwnerFetch, sendT)
		}
		done = m.net.Send(sendT, q, p, data)
		wb := m.net.Send(sendT, q, h, data)
		ws := m.hproc[h].Acquire(wb, m.cfg.Costs.AckOcc)
		m.prof.Node(h, obs.ResProc, obs.HCWriteBack, m.cfg.Costs.AckOcc)
		m.bank[h].Acquire(ws, m.cfg.Timing.MemBankOcc)
		m.caches[q].DowngradeMemLine(line)
		e.state = dirShared
		e.sharers.Add(q)
		class = proto.Lat3Hop
	default: // clean at home
		// Clean at home (covers the degenerate dirty-at-requester case
		// after a partial L2 eviction: the home's frame is authoritative
		// again). Directory access is overlapped with the memory access.
		m.bank[h].Acquire(hs, m.cfg.Timing.MemBankOcc)
		lat := m.memLat(h, line)
		if m.spans.On() {
			m.spans.Mark(obs.PhaseDirOcc, hs+max(m.cfg.Costs.ReadLat, lat))
		}
		done = m.net.Send(hs+max(m.cfg.Costs.ReadLat, lat), h, p, data)
		if e.state == dirDirty {
			e.state = dirShared
		}
		if e.state == dirHome {
			e.state = dirShared
		}
		class = proto.Lat2Hop
	}
	if m.spans.On() {
		m.spans.Mark(obs.PhaseNetReply, done)
	}
	e.sharers.Add(p)
	e.owner = -1
	m.fill(done, p, addr, false)
	return done, class
}

// remoteWrite handles a write whose home is another node.
func (m *Machine) remoteWrite(now sim.Time, p, h int, addr, line uint64, e *dirEntry, upgrade bool) (sim.Time, proto.LatClass) {
	ctrl := m.net.ControlBytes()
	data := m.net.DataBytes(m.cfg.LineBytes)
	arrive := m.net.Send(now, p, h, ctrl)
	if m.spans.On() {
		m.spans.Mark(obs.PhaseNetRequest, arrive)
	}

	targets := e.sharers.Targets(nil, m.allNodes, p)
	occ := m.cfg.Costs.ReadExOcc + m.cfg.Costs.InvalPerNode*sim.Time(len(targets))
	hs := m.hproc[h].Acquire(arrive, occ)
	m.prof.Node(h, obs.ResProc, obs.HCDirLookup, m.cfg.Costs.ReadExOcc)
	m.prof.Node(h, obs.ResProc, obs.HCInval, occ-m.cfg.Costs.ReadExOcc)
	replyT := hs + m.cfg.Costs.ReadExLat
	if m.spans.On() {
		m.spans.Mark(obs.PhaseDirOcc, replyT)
	}

	var done sim.Time
	var class proto.LatClass
	switch {
	case e.state == dirDirty && int(e.owner) != p && int(e.owner) != h:
		// 3-hop ownership transfer.
		q := int(e.owner)
		fwd := m.net.Send(replyT, h, q, ctrl)
		qs := m.bank[q].Acquire(fwd, m.cfg.Timing.MemBankOcc)
		if m.spans.On() {
			m.spans.Mark(obs.PhaseOwnerFetch, qs+m.cfg.Timing.L2Lat)
		}
		done = m.net.Send(qs+m.cfg.Timing.L2Lat, q, p, data)
		m.caches[q].InvalidateMemLine(line)
		m.st.Invalidations++
		if m.trace.On() {
			m.trace.Emit(obs.EvInval, fwd, 0, int32(q), line, 0)
		}
		class = proto.Lat3Hop
	case e.state == dirDirty && int(e.owner) == h:
		m.caches[h].InvalidateMemLine(line)
		m.st.Invalidations++
		if m.trace.On() {
			m.trace.Emit(obs.EvInval, hs, 0, int32(h), line, 0)
		}
		m.bank[h].Acquire(hs, m.cfg.Timing.MemBankOcc)
		done = m.net.Send(replyT, h, p, data)
		class = proto.Lat2Hop
	case upgrade:
		done = m.net.Send(replyT, h, p, ctrl)
		m.st.Upgrades++
		if m.trace.On() {
			m.trace.Emit(obs.EvUpgrade, replyT, 0, int32(p), line, 0)
		}
		class = proto.Lat2Hop
	default:
		m.bank[h].Acquire(hs, m.cfg.Timing.MemBankOcc)
		done = m.net.Send(replyT, h, p, data)
		class = proto.Lat2Hop
	}
	if m.spans.On() {
		// The data/grant reply ends here; ack collection below retires.
		m.spans.Mark(obs.PhaseNetReply, done)
	}
	for _, q := range targets {
		iv := m.net.Send(replyT, h, q, ctrl)
		m.caches[q].InvalidateMemLine(line)
		m.st.Invalidations++
		if m.trace.On() {
			m.trace.Emit(obs.EvInval, iv, 0, int32(q), line, 0)
		}
		if ack := m.net.Send(iv, q, p, ctrl); ack > done {
			done = ack
		}
	}
	e.state = dirDirty
	e.owner = int32(p)
	e.sharers.Clear()
	m.fill(done, p, addr, true)
	return done, class
}

// fill installs a fetched line into p's caches at time when, writing any
// displaced dirty lines back to their homes.
func (m *Machine) fill(when sim.Time, p int, addr uint64, writable bool) {
	m.handleVictims(when, p, m.caches[p].Fill(addr, writable))
}

// handleVictims writes displaced dirty L2 lines back to their homes. A dirty
// 64 B subline is only written back once its sibling subline has also left
// the cache (the memory line is the coherence unit).
func (m *Machine) handleVictims(when sim.Time, p int, victims []cache.Victim) {
	for _, v := range victims {
		if v.State != cache.Dirty {
			continue
		}
		sib := v.Addr ^ m.caches[p].L2.LineBytes()
		if st, ok := m.caches[p].L2.Lookup(sib); ok && st == cache.Dirty {
			continue // other half still dirty here; defer
		}
		line := m.alignLine(v.Addr)
		pg := m.page(p, v.Addr)
		h, e := pg.home, m.entry(pg, line)
		if e.state == dirDirty && int(e.owner) == p {
			e.state = dirHome
			e.owner = -1
			e.sharers.Clear()
		}
		m.st.WriteBacks++
		if m.trace.On() {
			m.trace.Emit(obs.EvWriteBack, when, 0, int32(p), line, 0)
		}
		if h == p {
			m.bank[p].Acquire(when, m.cfg.Timing.MemBankOcc)
			continue
		}
		// Background write-back message; it contends for links and the
		// home's protocol engine but nobody waits on it.
		wb := m.net.Send(when, p, h, m.net.DataBytes(m.cfg.LineBytes))
		ws := m.hproc[h].Acquire(wb, m.cfg.Costs.WBOcc)
		m.prof.Node(h, obs.ResProc, obs.HCWriteBack, m.cfg.Costs.WBOcc)
		m.bank[h].Acquire(ws, m.cfg.Timing.MemBankOcc)
	}
}

// Placement is trivial for NUMA (node i at mesh index i) but exported for
// symmetry with the AGG engine.
func Placement(n int) []int {
	p, _ := core.Placement(n, n, 0)
	return p
}
