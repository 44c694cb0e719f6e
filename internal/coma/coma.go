// Package coma implements the Flat COMA baseline of the paper's evaluation
// (§3): every node's local DRAM is an attraction memory (a tagged
// set-associative cache of memory lines, like AGG's P-node memories), the
// directory home of a line is fixed by first touch, but the data itself
// migrates to wherever it is used. Exactly one copy of each line is the
// master; replacement prefers invalid and non-master lines, and a displaced
// master is *injected* into another node's attraction memory using Joe and
// Hennessy's method (relocate to the provider, cascading onwards if the
// provider's set is full of masters) — the protocol complication and memory
// pollution AGG's home-always-accepts design avoids.
package coma

import (
	"fmt"

	"pimdsm/internal/cache"
	"pimdsm/internal/frame"
	"pimdsm/internal/mesh"
	"pimdsm/internal/obs"
	"pimdsm/internal/proto"
	"pimdsm/internal/sim"
)

type dirState uint8

const (
	dirUnfetched dirState = iota // zero-fill on first touch
	dirShared                    // master plus possibly non-master copies
	dirDirty                     // single writable master copy
	dirSwapped                   // overflow: line swapped to disk
)

type dirEntry struct {
	state   dirState
	master  int32
	sharers proto.PtrVec
	// provider is the node that last supplied the line: where a displaced
	// master is injected first. 0 until the line is first filled.
	provider int32
}

// Config describes a Flat COMA machine.
type Config struct {
	Nodes int

	LineBytes uint64
	PageBytes uint64

	// AMBytes is each node's attraction-memory capacity, organized as an
	// AMAssoc-way cache with OnChipFraction on chip.
	AMBytes        uint64
	AMAssoc        int
	OnChipFraction float64

	// MaxInjectHops bounds an injection cascade before the line is swapped
	// to disk. 0 means scan every node (with pressure < 100% space exists
	// somewhere, so overflow to disk is then a true last resort).
	MaxInjectHops int

	Caches proto.CacheGeom
	Timing proto.Timing
	Costs  proto.HandlerCosts
	Mesh   mesh.Config
}

// DefaultConfig returns the Table 1 COMA configuration (double-width links,
// hardware protocol costs, 4-way attraction memories).
func DefaultConfig(nodes int, amBytes uint64, l1, l2 uint64) Config {
	mc := mesh.DefaultConfig(0, 0)
	mc.BytesPerCycle *= 2
	return Config{
		Nodes:          nodes,
		LineBytes:      128,
		PageBytes:      4096,
		AMBytes:        amBytes,
		AMAssoc:        4,
		OnChipFraction: 0.5,
		MaxInjectHops:  0,
		Caches:         proto.DefaultCacheGeom(l1, l2),
		Timing:         proto.DefaultTiming(128),
		Costs:          proto.AGGCosts().Scale(proto.HardwareScale),
		Mesh:           mc,
	}
}

// Machine is the Flat COMA engine. The frame's Mem are the attraction
// memories.
type Machine struct {
	frame.Frame
	cfg Config

	hproc []sim.Resource
	disk  []sim.Resource

	dir frame.Dir[dirEntry] // the flat directory
}

// New builds a COMA machine.
func New(cfg Config) (*Machine, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("coma: need at least one node")
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
	m.disk = m.NewResources(cfg.Nodes, 0, obs.ResDisk)
	m.dir = frame.NewDir(&m.Frame, dirEntry{master: -1})
	m.Mem = make([]*cache.LocalMemory, cfg.Nodes)
	for i := range m.Mem {
		if m.Mem[i], err = cache.NewLocal(cfg.AMBytes, cfg.LineBytes, cfg.AMAssoc, cfg.OnChipFraction); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// auditAccess checks the flat-directory invariants for the accessed line:
// exactly one master whose attraction memory really holds the line in the
// owning state, membership of the master in the sharer vector, and no
// residual master once a line is swapped out.
func (m *Machine) auditAccess(addr uint64) {
	line := m.AlignLine(addr)
	pg, ok := m.dir.Lookup(line)
	if !ok {
		m.AuditFail("line %#x: no directory entry after access", line)
		return
	}
	e := m.dir.Entry(pg, line)
	switch e.state {
	case dirUnfetched, dirSwapped:
		if e.master != -1 {
			m.AuditFail("line %#x in state %d retains master %d", line, e.state, e.master)
		}
	case dirShared, dirDirty:
		if e.master < 0 || int(e.master) >= m.cfg.Nodes {
			m.AuditFail("line %#x has invalid master %d", line, e.master)
			return
		}
		want := cache.SharedMaster
		if e.state == dirDirty {
			want = cache.Dirty
		}
		if st, hit, _ := m.Mem[e.master].Lookup(line); !hit || st != want {
			m.AuditFail("line %#x: master %d holds %v (hit=%v), want %v", line, e.master, st, hit, want)
		}
		if !e.sharers.Contains(int(e.master)) {
			m.AuditFail("line %#x: master %d missing from sharer vector", line, e.master)
		}
	default:
		m.AuditFail("line %#x in unknown directory state %d", line, e.state)
	}
}

// AMOf exposes a node's attraction memory for tests.
func (m *Machine) AMOf(n int) *cache.LocalMemory { return m.Mem[n] }

// hopClass classifies a transaction by distinct node hops: requester->home->
// supplier->requester collapses when roles coincide.
func hopClass(p, home, supplier int) proto.LatClass {
	if home == p && supplier == p {
		return proto.LatMem
	}
	if home == p || supplier == home {
		return proto.Lat2Hop
	}
	return proto.Lat3Hop
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
	memDone, hit, served := m.LocalMem(now, p, addr, write) // attraction memory
	if served {
		return memDone, proto.LatMem
	}
	line := m.AlignLine(addr)
	pg := m.dir.Page(p, addr)
	home, e := pg.Home, m.dir.Entry(pg, line)
	if write {
		return m.writeMiss(memDone, p, home, addr, line, e, hit)
	}
	return m.readMiss(memDone, p, home, addr, line, e)
}

// dirAt charges the directory handler at the home: a network message when
// the home is remote, just handler occupancy when it is on chip.
func (m *Machine) dirAt(t sim.Time, p, home int, occ sim.Time) sim.Time {
	if home != p {
		t = m.Hop(t, p, home, m.Net.ControlBytes(), frame.NoMark, obs.PhaseNetRequest)
	}
	return m.hproc[home].Acquire(t, occ)
}

// fetch has master q supply the line to p, the home having dispatched the
// request at t (directly when q is the home itself, at hs), and returns the
// data's arrival.
func (m *Machine) fetch(hs, t sim.Time, p, home, q int, line uint64) sim.Time {
	at := hs
	if q == home {
		m.Spans.Mark(obs.PhaseDirOcc, hs)
	} else {
		at = m.Hop(t, home, q, m.Net.ControlBytes(), obs.PhaseDirOcc, frame.NoMark)
	}
	qs := m.Bank[q].Acquire(at, m.cfg.Timing.MemBankOcc)
	return m.Hop(qs+m.MemLat(q, line), q, p, m.Net.DataBytes(m.cfg.LineBytes), obs.PhaseOwnerFetch, obs.PhaseNetReply)
}

// diskFetch reads a swapped-out line from the home's paging device once
// the handler starts at hs, and sends it to p.
func (m *Machine) diskFetch(hs sim.Time, p, home int, line uint64) sim.Time {
	ds := m.disk[home].Acquire(hs, m.cfg.Timing.DiskLat)
	m.Prof.Node(home, obs.ResDisk, obs.HCPageout, m.cfg.Timing.DiskLat)
	done := m.Hop(ds+m.cfg.Timing.DiskLat, home, p, m.Net.DataBytes(m.cfg.LineBytes), obs.PhaseDirOcc, obs.PhaseNetReply)
	m.St.DiskFaults++
	if m.Trace.On() {
		m.Trace.Emit(obs.EvDiskFault, ds, 0, int32(home), line, 0)
	}
	return done
}

func (m *Machine) readMiss(reqT sim.Time, p, home int, addr, line uint64, e *dirEntry) (sim.Time, proto.LatClass) {
	m.Spans.Mark(obs.PhaseIssue, reqT)
	hs := m.dirAt(reqT, p, home, m.cfg.Costs.ReadOcc)
	m.Prof.Node(home, obs.ResProc, obs.HCDirLookup, m.cfg.Costs.ReadOcc)

	var done sim.Time
	supplier := home
	fillState := cache.Shared

	switch e.state {
	case dirUnfetched:
		// Zero-fill from the home's memory controller; the first toucher
		// becomes the master.
		m.Bank[home].Acquire(hs, m.cfg.Timing.MemBankOcc)
		done = m.Hop(hs+m.cfg.Costs.ReadLat, home, p, m.Net.DataBytes(m.cfg.LineBytes), obs.PhaseDirOcc, obs.PhaseNetReply)
		e.state = dirShared
		e.master = int32(p)
		e.sharers.Add(p)
		fillState = cache.SharedMaster
	case dirSwapped:
		// The line was swapped out after an injection overflow.
		done = m.diskFetch(hs, p, home, line)
		e.state = dirShared
		e.master = int32(p)
		e.sharers.Add(p)
		fillState = cache.SharedMaster
	default:
		q := int(e.master)
		if q == p {
			panic("coma: read miss by the master holder")
		}
		supplier = q
		done = m.fetch(hs, hs+m.cfg.Costs.ReadLat, p, home, q, line)
		if e.state == dirDirty {
			// Master downgrades but keeps mastership (flat COMA: no copy
			// goes back to the home).
			m.Mem[q].SetState(line, cache.SharedMaster)
			m.Caches[q].DowngradeMemLine(line)
			e.state = dirShared
		}
		e.sharers.Add(p)
		fillState = cache.Shared
	}
	class := hopClass(p, home, supplier)
	m.fill(done, p, addr, e, fillState, false, supplier)
	return done, class
}

func (m *Machine) writeMiss(reqT sim.Time, p, home int, addr, line uint64, e *dirEntry, upgrade bool) (sim.Time, proto.LatClass) {
	data := m.Net.DataBytes(m.cfg.LineBytes)
	ctrl := m.Net.ControlBytes()

	targets := m.Sharers(&e.sharers, p)
	occ := m.cfg.Costs.ReadExOcc + m.cfg.Costs.InvalPerNode*sim.Time(len(targets))
	m.Spans.Mark(obs.PhaseIssue, reqT)
	hs := m.dirAt(reqT, p, home, occ)
	m.Prof.Node(home, obs.ResProc, obs.HCDirLookup, m.cfg.Costs.ReadExOcc)
	m.Prof.Node(home, obs.ResProc, obs.HCInval, occ-m.cfg.Costs.ReadExOcc)
	replyT := hs + m.cfg.Costs.ReadExLat

	// The data/grant reply ends the net-reply phase; the invalidation-ack
	// collection below only extends done, and that tail retires the span.
	var done sim.Time
	supplier := home

	switch {
	case e.state == dirUnfetched:
		m.Bank[home].Acquire(hs, m.cfg.Timing.MemBankOcc)
		done = m.Hop(replyT, home, p, data, obs.PhaseDirOcc, obs.PhaseNetReply)
	case e.state == dirSwapped:
		done = m.diskFetch(hs, p, home, line)
	case upgrade:
		// p holds a readable (non-master) copy; ownership grant only.
		done = m.Hop(replyT, home, p, ctrl, obs.PhaseDirOcc, obs.PhaseNetReply)
		m.St.Upgrades++
		if m.Trace.On() {
			m.Trace.Emit(obs.EvUpgrade, replyT, 0, int32(p), line, 0)
		}
	default:
		q := int(e.master)
		if q == p {
			panic("coma: write miss by the master holder")
		}
		supplier = q
		done = m.fetch(hs, replyT, p, home, q, line)
	}

	// Invalidate every other copy; acks race the data to the requester.
	for _, q := range targets {
		iv := m.Net.Send(replyT, home, q, ctrl)
		m.Inval(iv, q, line)
		if ack := m.Net.Send(iv, q, p, ctrl); ack > done {
			done = ack
		}
	}

	class := hopClass(p, home, supplier)
	e.state = dirDirty
	e.master = int32(p)
	e.sharers.Clear()
	e.sharers.Add(p)
	if upgrade {
		if !m.Mem[p].SetState(line, cache.Dirty) {
			panic("coma: upgrade of a line absent from the attraction memory")
		}
		m.Caches[p].Fill(addr, true)
	} else {
		m.fill(done, p, addr, e, cache.Dirty, true, supplier)
	}
	return done, class
}

// fill inserts a fetched line into p's attraction memory and caches and
// records supplier as the provider in e, the line's directory entry.
// Displaced non-master shared lines are dropped silently; a displaced master
// must be injected into another attraction memory.
func (m *Machine) fill(when sim.Time, p int, addr uint64, e *dirEntry, st cache.State, writable bool, supplier int) {
	e.provider = int32(supplier)
	if v, owned := m.Install(p, addr, st, writable); owned {
		m.inject(when, p, v.Addr, v.State)
	}
	// Non-master shared victims vanish silently (stale sharer pointers are
	// harmless: later invalidations to them are no-ops).
}

// inject relocates a displaced master line (Joe & Hennessy): first to the
// node that provided the line whose arrival caused the displacement, then
// cascading node to node while the candidate sets are full of other masters.
// If the cascade exceeds MaxInjectHops the line is swapped out to disk at
// its home — COMA's overflow safety valve.
func (m *Machine) inject(t sim.Time, from int, line uint64, st cache.State) {
	pg := m.dir.Page(from, line)
	e := m.dir.Entry(pg, line)
	if int(e.master) != from {
		panic(fmt.Sprintf("coma: injecting %#x from %d but master is %d", line, from, e.master))
	}
	data := m.Net.DataBytes(m.cfg.LineBytes)
	target := int(e.provider)
	if target == from || target < 0 || target >= m.cfg.Nodes {
		target = (from + 1) % m.cfg.Nodes
	}
	cur := from
	maxHops := m.cfg.MaxInjectHops
	if maxHops <= 0 {
		maxHops = m.cfg.Nodes
	}
	for hop := 0; hop < maxHops; hop++ {
		arrive := m.Net.Send(t, cur, target, data)
		hs := m.hproc[target].Acquire(arrive, m.cfg.Costs.WBOcc)
		m.Prof.Node(target, obs.ResProc, obs.HCWriteBack, m.cfg.Costs.WBOcc)
		m.Bank[target].Acquire(hs, m.cfg.Timing.MemBankOcc)
		v := m.Mem[target].ProbeVictim(line, frame.SharedFirst)
		if !v.State.Owned() {
			m.Mem[target].Insert(line, st, frame.SharedFirst)
			if v.Valid() {
				m.Caches[target].InvalidateMemLine(v.Addr)
			}
			e.master = int32(target)
			e.sharers.Remove(from)
			e.sharers.Add(target)
			m.St.Injections++
			m.St.InjectionHops += uint64(hop + 1)
			if m.Trace.On() {
				m.Trace.Emit(obs.EvInject, hs, 0, int32(target), line, uint64(hop+1))
			}
			return
		}
		// This set is all masters: pass the line on.
		t = hs
		cur = target
		target = (target + 1) % m.cfg.Nodes
		if target == from {
			target = (target + 1) % m.cfg.Nodes
		}
	}
	// Overflow: swap to disk at the home, invalidating the straggler
	// non-master copies so no stale data survives.
	home := pg.Home
	arrive := m.Net.Send(t, cur, home, data)
	hs := m.hproc[home].Acquire(arrive, m.cfg.Costs.WBOcc)
	m.Prof.Node(home, obs.ResProc, obs.HCPageout, m.cfg.Costs.WBOcc)
	m.disk[home].Acquire(hs, m.cfg.Timing.DiskLat)
	m.Prof.Node(home, obs.ResDisk, obs.HCPageout, m.cfg.Timing.DiskLat)
	for _, q := range m.Sharers(&e.sharers, from) {
		m.Inval(m.Net.Send(hs, home, q, m.Net.ControlBytes()), q, line)
	}
	e.state = dirSwapped
	e.master = -1
	e.sharers.Clear()
	m.St.Overflows++
	if m.Trace.On() {
		m.Trace.Emit(obs.EvOverflow, hs, 0, int32(home), line, 0)
	}
}
