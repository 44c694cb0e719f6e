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

	"pimdsm/internal/cache"
	"pimdsm/internal/frame"
	"pimdsm/internal/mesh"
	"pimdsm/internal/obs"
	"pimdsm/internal/proto"
	"pimdsm/internal/sim"
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
	frame.Frame
	cfg Config

	onchip []*cache.SetAssoc // presence tracker: which local lines are on chip
	hproc  []sim.Resource    // on-chip directory/protocol engine

	dir frame.Dir[dirEntry] // the home directory
}

// New builds a NUMA machine.
func New(cfg Config) (*Machine, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("numa: need at least one node")
	}
	f, err := frame.New(frame.Config{
		Procs: cfg.Nodes, Nodes: cfg.Nodes,
		LineBytes: cfg.LineBytes, PageBytes: cfg.PageBytes,
		Caches: cfg.Caches, Timing: cfg.Timing, Mesh: cfg.Mesh,
	})
	if err != nil {
		return nil, err
	}
	m := &Machine{Frame: f, cfg: cfg}
	m.hproc = m.NewResources(cfg.Nodes, 0, obs.ResProc)
	m.dir = frame.NewDir(&m.Frame, dirEntry{owner: -1})
	m.onchip = make([]*cache.SetAssoc, cfg.Nodes)
	for i := range m.onchip {
		if m.onchip[i], err = cache.New(cfg.OnChipBytes, cfg.LineBytes, 4); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// auditAccess checks the accessed line's home directory entry against the
// protocol invariants. The dirty owner's caches are deliberately not
// cross-checked: after a partial L2 eviction the home frame is
// authoritative while the directory still records an owner (the degenerate
// case remoteRead folds into clean-at-home).
func (m *Machine) auditAccess(addr uint64) {
	line := m.AlignLine(addr)
	pg, ok := m.dir.Lookup(line)
	if !ok {
		m.AuditFail("line %#x: no directory entry after access", line)
		return
	}
	e := m.dir.Entry(pg, line)
	switch e.state {
	case dirDirty:
		if e.owner < 0 || int(e.owner) >= m.cfg.Nodes {
			m.AuditFail("dirty line %#x has invalid owner %d", line, e.owner)
		}
		if !e.sharers.Empty() {
			m.AuditFail("dirty line %#x has sharers recorded", line)
		}
	case dirShared:
		if e.owner != -1 {
			m.AuditFail("shared line %#x records owner %d", line, e.owner)
		}
		if e.sharers.Empty() {
			m.AuditFail("shared line %#x has no sharers", line)
		}
	case dirHome:
		if e.owner != -1 || !e.sharers.Empty() {
			m.AuditFail("idle line %#x retains owner %d or sharers", line, e.owner)
		}
	default:
		m.AuditFail("line %#x in unknown directory state %d", line, e.state)
	}
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
	m.Begin(now, p, addr, write)
	done, class := m.access(now, p, addr, write)
	if m.Auditing() {
		m.auditAccess(addr)
	}
	m.Retire(now, done, p, addr, write, class)
	return done, class
}

func (m *Machine) access(now sim.Time, p int, addr uint64, write bool) (sim.Time, proto.LatClass) {
	if done, class, hit := m.Cached(now, p, addr, write); hit {
		return done, class
	}
	line := m.AlignLine(addr)
	pg := m.dir.Page(p, addr)
	home, e := pg.Home, m.dir.Entry(pg, line)
	upgrade := m.Caches[p].Holds(addr) // readable copy present; ownership only

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
	ctrl := m.Net.ControlBytes()
	data := m.Net.DataBytes(m.cfg.LineBytes)

	if !write {
		if e.state == dirDirty && int(e.owner) != p {
			// Fetch from the remote owner: two node hops (p -> owner -> p).
			q := int(e.owner)
			rq := m.Hop(now, p, q, ctrl, frame.NoMark, obs.PhaseNetRequest)
			qs := m.Bank[q].Acquire(rq, m.cfg.Timing.MemBankOcc)
			done := m.Hop(qs+m.cfg.Timing.L2Lat, q, p, data, obs.PhaseOwnerFetch, obs.PhaseNetReply)
			m.Caches[q].DowngradeMemLine(line)
			m.Bank[p].Acquire(done, m.cfg.Timing.MemBankOcc) // home memory update
			e.state = dirShared
			e.owner = -1
			e.sharers.Add(q)
			e.sharers.Add(p)
			m.fill(done, p, addr, false)
			return done, proto.Lat2Hop
		}
		bs := m.Bank[p].Acquire(now, m.cfg.Timing.MemBankOcc)
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
		rq := m.Hop(now, p, q, ctrl, frame.NoMark, obs.PhaseNetRequest)
		qs := m.Bank[q].Acquire(rq, m.cfg.Timing.MemBankOcc)
		done := m.Hop(qs+m.cfg.Timing.L2Lat, q, p, data, obs.PhaseOwnerFetch, obs.PhaseNetReply)
		m.Inval(rq, q, line)
		e.owner = int32(p)
		e.sharers.Clear()
		m.fill(done, p, addr, true)
		return done, proto.Lat2Hop
	default:
		bs := m.Bank[p].Acquire(now, m.cfg.Timing.MemBankOcc)
		done := bs + m.memLat(p, line)
		// Memory access is issue-side work; the ack wait below retires.
		m.Spans.Mark(obs.PhaseIssue, done)
		// Invalidate remote sharers; their acks bound completion.
		for _, q := range m.Sharers(&e.sharers, p) {
			iv := m.Net.Send(now, p, q, ctrl)
			m.Inval(iv, q, line)
			if ack := m.Net.Send(iv, q, p, ctrl); ack > done {
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
	ctrl := m.Net.ControlBytes()
	data := m.Net.DataBytes(m.cfg.LineBytes)
	arrive := m.Hop(now, p, h, ctrl, frame.NoMark, obs.PhaseNetRequest)
	hs := m.hproc[h].Acquire(arrive, m.cfg.Costs.ReadOcc)
	m.Prof.Node(h, obs.ResProc, obs.HCDirLookup, m.cfg.Costs.ReadOcc)

	var done sim.Time
	var class proto.LatClass
	switch {
	case e.state == dirDirty && int(e.owner) == h:
		// The home's own caches hold the line dirty; it supplies and its
		// memory is updated in place.
		m.Caches[h].DowngradeMemLine(line)
		m.Bank[h].Acquire(hs, m.cfg.Timing.MemBankOcc)
		done = m.Hop(hs+m.cfg.Costs.ReadLat, h, p, data, obs.PhaseDirOcc, obs.PhaseNetReply)
		e.state = dirShared
		e.sharers.Add(h)
		class = proto.Lat2Hop
	case e.state == dirDirty && int(e.owner) != p:
		// 3-hop: forward to owner; owner supplies requester and writes the
		// line back to the home (sharing write-back).
		q := int(e.owner)
		fwd := m.Hop(hs+m.cfg.Costs.ReadLat, h, q, ctrl, obs.PhaseDirOcc, frame.NoMark)
		qs := m.Bank[q].Acquire(fwd, m.cfg.Timing.MemBankOcc)
		sendT := qs + m.cfg.Timing.L2Lat
		done = m.Hop(sendT, q, p, data, obs.PhaseOwnerFetch, obs.PhaseNetReply)
		wb := m.Net.Send(sendT, q, h, data)
		ws := m.hproc[h].Acquire(wb, m.cfg.Costs.AckOcc)
		m.Prof.Node(h, obs.ResProc, obs.HCWriteBack, m.cfg.Costs.AckOcc)
		m.Bank[h].Acquire(ws, m.cfg.Timing.MemBankOcc)
		m.Caches[q].DowngradeMemLine(line)
		e.state = dirShared
		e.sharers.Add(q)
		class = proto.Lat3Hop
	default: // clean at home
		// Clean at home (covers the degenerate dirty-at-requester case
		// after a partial L2 eviction: the home's frame is authoritative
		// again). Directory access is overlapped with the memory access.
		m.Bank[h].Acquire(hs, m.cfg.Timing.MemBankOcc)
		lat := m.memLat(h, line)
		done = m.Hop(hs+max(m.cfg.Costs.ReadLat, lat), h, p, data, obs.PhaseDirOcc, obs.PhaseNetReply)
		if e.state == dirDirty {
			e.state = dirShared
		}
		if e.state == dirHome {
			e.state = dirShared
		}
		class = proto.Lat2Hop
	}
	e.sharers.Add(p)
	e.owner = -1
	m.fill(done, p, addr, false)
	return done, class
}

// remoteWrite handles a write whose home is another node.
func (m *Machine) remoteWrite(now sim.Time, p, h int, addr, line uint64, e *dirEntry, upgrade bool) (sim.Time, proto.LatClass) {
	ctrl := m.Net.ControlBytes()
	data := m.Net.DataBytes(m.cfg.LineBytes)
	arrive := m.Hop(now, p, h, ctrl, frame.NoMark, obs.PhaseNetRequest)

	targets := m.Sharers(&e.sharers, p)
	occ := m.cfg.Costs.ReadExOcc + m.cfg.Costs.InvalPerNode*sim.Time(len(targets))
	hs := m.hproc[h].Acquire(arrive, occ)
	m.Prof.Node(h, obs.ResProc, obs.HCDirLookup, m.cfg.Costs.ReadExOcc)
	m.Prof.Node(h, obs.ResProc, obs.HCInval, occ-m.cfg.Costs.ReadExOcc)
	replyT := hs + m.cfg.Costs.ReadExLat
	m.Spans.Mark(obs.PhaseDirOcc, replyT)

	// The data/grant reply ends the net-reply phase; ack collection below
	// retires.
	var done sim.Time
	var class proto.LatClass
	switch {
	case e.state == dirDirty && int(e.owner) != p && int(e.owner) != h:
		// 3-hop ownership transfer.
		q := int(e.owner)
		fwd := m.Net.Send(replyT, h, q, ctrl)
		qs := m.Bank[q].Acquire(fwd, m.cfg.Timing.MemBankOcc)
		done = m.Hop(qs+m.cfg.Timing.L2Lat, q, p, data, obs.PhaseOwnerFetch, obs.PhaseNetReply)
		m.Inval(fwd, q, line)
		class = proto.Lat3Hop
	case e.state == dirDirty && int(e.owner) == h:
		m.Inval(hs, h, line)
		m.Bank[h].Acquire(hs, m.cfg.Timing.MemBankOcc)
		done = m.Hop(replyT, h, p, data, frame.NoMark, obs.PhaseNetReply)
		class = proto.Lat2Hop
	case upgrade:
		done = m.Hop(replyT, h, p, ctrl, frame.NoMark, obs.PhaseNetReply)
		m.St.Upgrades++
		if m.Trace.On() {
			m.Trace.Emit(obs.EvUpgrade, replyT, 0, int32(p), line, 0)
		}
		class = proto.Lat2Hop
	default:
		m.Bank[h].Acquire(hs, m.cfg.Timing.MemBankOcc)
		done = m.Hop(replyT, h, p, data, frame.NoMark, obs.PhaseNetReply)
		class = proto.Lat2Hop
	}
	for _, q := range targets {
		iv := m.Net.Send(replyT, h, q, ctrl)
		m.Inval(iv, q, line)
		if ack := m.Net.Send(iv, q, p, ctrl); ack > done {
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
	m.handleVictims(when, p, m.Caches[p].Fill(addr, writable))
}

// handleVictims writes displaced dirty L2 lines back to their homes. A dirty
// 64 B subline is only written back once its sibling subline has also left
// the cache (the memory line is the coherence unit).
func (m *Machine) handleVictims(when sim.Time, p int, victims []cache.Victim) {
	for _, v := range victims {
		if v.State != cache.Dirty {
			continue
		}
		sib := v.Addr ^ m.Caches[p].L2.LineBytes()
		if st, ok := m.Caches[p].L2.Lookup(sib); ok && st == cache.Dirty {
			continue // other half still dirty here; defer
		}
		line := m.AlignLine(v.Addr)
		pg := m.dir.Page(p, v.Addr)
		h, e := pg.Home, m.dir.Entry(pg, line)
		if e.state == dirDirty && int(e.owner) == p {
			e.state = dirHome
			e.owner = -1
			e.sharers.Clear()
		}
		m.St.WriteBacks++
		if m.Trace.On() {
			m.Trace.Emit(obs.EvWriteBack, when, 0, int32(p), line, 0)
		}
		if h == p {
			m.Bank[p].Acquire(when, m.cfg.Timing.MemBankOcc)
			continue
		}
		// Background write-back message; it contends for links and the
		// home's protocol engine but nobody waits on it.
		wb := m.Net.Send(when, p, h, m.Net.DataBytes(m.cfg.LineBytes))
		ws := m.hproc[h].Acquire(wb, m.cfg.Costs.WBOcc)
		m.Prof.Node(h, obs.ResProc, obs.HCWriteBack, m.cfg.Costs.WBOcc)
		m.Bank[h].Acquire(ws, m.cfg.Timing.MemBankOcc)
	}
}
