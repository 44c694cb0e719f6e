// Package machine assembles whole simulated multiprocessors — an AGG, CC-NUMA
// or Flat COMA coherence engine, 32 (or fewer) processors, and an
// application — sizes their memories from the experiment's memory pressure,
// runs them to completion, and reports the measurements the paper's figures
// are built from.
package machine

import (
	"fmt"

	"pimdsm/internal/coma"
	"pimdsm/internal/core"
	"pimdsm/internal/cpu"
	"pimdsm/internal/frame"
	"pimdsm/internal/mesh"
	"pimdsm/internal/numa"
	"pimdsm/internal/obs"
	"pimdsm/internal/sim"
	"pimdsm/internal/stats"
	"pimdsm/internal/workload"
)

// Arch selects the architecture under test.
type Arch string

// The three organizations of the paper's evaluation (§3).
const (
	AGG  Arch = "agg"
	NUMA Arch = "numa"
	COMA Arch = "coma"
)

// Config describes one simulation run.
type Config struct {
	Arch Arch
	App  workload.Spec
	// Threads is the number of application threads (the paper uses 32).
	Threads int
	// Pressure is footprint / total machine DRAM (the paper evaluates 25%
	// and 75%). Ignored by NUMA timing but still used to size its memory.
	Pressure float64
	// DRatio sets the AGG D-node count to Threads/DRatio (1 = 1/1AGG,
	// 2 = 1/2AGG, 4 = 1/4AGG). Total D-memory stays constant as D-nodes
	// get fewer and fatter (§4.1).
	DRatio int
	// DNodes overrides DRatio with an explicit D-node count (Figure 9/10).
	DNodes int

	// PMemBytesOverride fixes the per-P-node memory instead of deriving it
	// from Pressure (Figure 9 keeps per-node memory constant as nodes are
	// added).
	PMemBytesOverride uint64
	// DMemTotalOverride fixes the total D-node memory in bytes.
	DMemTotalOverride uint64

	// Ablation knobs (0 = the paper's defaults). OnChipFraction sets the
	// on-chip share of AGG P-node memory (§3 tunes it per application and
	// argues the impact is modest); SharedMinFrac sets the SharedList
	// reuse threshold (§2.2.2); HandlerScale scales the AGG software
	// handler costs (1.0 = Table 2; 0.7 = the paper's hardware estimate)
	// and must lie in [0, MaxHandlerScale].
	OnChipFraction float64
	SharedMinFrac  float64
	HandlerScale   float64
	// DMemSetAssoc switches the AGG D-memories to the §2.2.2 rejected
	// set-associative organization (0 = the paper's fully-associative one).
	DMemSetAssoc int

	// Trace, when non-nil, receives the run's protocol events (reads, writes,
	// invalidations, write-backs, recalls, pageouts, mesh messages, ...).
	// Tracing is record-only: it never feeds back into simulation state, so a
	// run's results are bit-identical with it on or off.
	Trace *obs.Trace
	// Metrics, when non-nil, has the run's end-of-run counters folded into it
	// (obs.CollectMachine plus mesh traffic and execution time).
	Metrics *obs.Registry
	// PhaseProgress, when non-nil, is called each time the last thread
	// crosses a phase marker — a coarse live-progress hook for long runs.
	PhaseProgress func(phase int, at sim.Time)

	// Spans, when non-nil, receives one transaction span per memory access
	// that leaves a processor node, with per-phase cycle attribution. Like
	// Trace, it is record-only: results are bit-identical with it on or off.
	Spans *obs.Spans
	// Audit walks the coherence state touched by each transaction at span
	// retirement and counts protocol-invariant violations (reported in
	// Result.AuditViolations). Read-only, so timing is unaffected.
	Audit bool

	// Profile, when non-nil and enabled, receives the run's cycle
	// attribution: per-node handler-class accounting, P-node busy/stall
	// buckets, and mesh-link utilization with queue-depth samples. Like
	// Trace and Spans it is record-only — results are bit-identical with
	// profiling on or off.
	Profile *obs.Profile
}

// Result is everything a run measures. All engine-level counters are
// measured from the PhaseMeasured marker (warm-up initialization excluded).
type Result struct {
	Arch    Arch
	App     string
	Threads int
	PNodes  int
	DNodes  int

	Breakdown stats.Breakdown
	PerThread []stats.Thread
	Machine   stats.Machine
	Mesh      mesh.Stats
	Census    core.Census // AGG only: end-of-run line-state census
	// CensusPhase2 is the census when the last thread crossed PhaseSecond
	// (used by the reconfiguration overhead model).
	CensusPhase2 core.Census

	// PhaseEnd[p] is the time the last thread crossed phase marker p,
	// relative to the measurement start.
	PhaseEnd map[int]sim.Time

	// DProcBusy/DProcWaited aggregate D-node protocol-processor busy time
	// and queueing delay (AGG only) — the utilization hint §2.3 uses to
	// tune the static P:D split.
	DProcBusy   sim.Time
	DProcWaited sim.Time

	// DMem aggregates the D-node memory-management counters (AGG only),
	// including SetConflicts for the set-associative ablation.
	DMem core.DMemStats

	// Sizing actually used.
	TotalDRAM   uint64
	PMemBytes   uint64
	DMemLines   int
	EffPressure float64

	// AuditViolations counts coherence-invariant violations found by the
	// per-transaction auditor (Config.Audit); AuditSamples holds the first
	// few diagnostics.
	AuditViolations uint64
	AuditSamples    []string
}

// CheckFor reports why r cannot be the result of running cfg: it is nil,
// names another machine, application or thread count, lacks a per-thread
// record for each thread, or ran for no cycles. A result decoded from
// outside the process must pass it before it is trusted.
func (r *Result) CheckFor(cfg Config) error {
	switch {
	case r == nil:
		return fmt.Errorf("machine: result is null")
	case r.Arch != cfg.Arch || r.App != cfg.App.Name || r.Threads != cfg.Threads:
		return fmt.Errorf("machine: result is for %s/%s/%d threads, config is %s/%s/%d threads",
			r.Arch, r.App, r.Threads, cfg.Arch, cfg.App.Name, cfg.Threads)
	case len(r.PerThread) != r.Threads:
		return fmt.Errorf("machine: result has %d per-thread records for %d threads", len(r.PerThread), r.Threads)
	case r.Breakdown.Exec <= 0:
		return fmt.Errorf("machine: result ran for no cycles")
	}
	return nil
}

// engine is one coherence machine: its protocol's accesses, and the frame
// that holds its observers, auditor, counters and mesh.
type engine interface {
	cpu.Memory
	Base() *frame.Frame
}

// roundLines rounds a byte capacity down to a whole number of assoc-way
// 128-byte-line sets, with a floor of one set.
func roundLines(bytes uint64, assoc int) uint64 {
	lines := bytes / workload.LineBytes
	q := uint64(assoc)
	if lines < q {
		lines = q
	}
	return lines / q * q * workload.LineBytes
}

// roundPow2 returns the largest power of two ≤ v (v ≥ 1).
func roundPow2(v uint64) uint64 {
	p := uint64(1)
	for p*2 <= v {
		p *= 2
	}
	return p
}

// Sizing derives the per-node memory capacities for a config.
type Sizing struct {
	TotalDRAM uint64
	PMemBytes uint64 // per P-node (AGG) / AM per node (COMA) / mem per node (NUMA)
	DMemLines int    // per D-node Data slots (AGG)
	PNodes    int
	DNodes    int
}

// MaxHandlerScale bounds Config.HandlerScale. Scaled handler costs are
// converted to sim.Time, so an unbounded factor wraps the simulated clock
// (an AGG fft run breaks somewhere between 1e12 and 1e15); 1000 is far
// beyond any experiment (the paper's hardware estimate is 0.7).
const MaxHandlerScale = 1000

// MaxOverrideFootprints bounds the memory overrides as a multiple of the
// application footprint fp: PMemBytesOverride and DMemTotalOverride may each
// be at most MaxOverrideFootprints*fp. The Figure 9/10 baseline sizing gives
// at most about 0.67*fp at the paper's 75% pressure; an override past the
// bound models no experiment and would only size the memories' backing
// arrays beyond what the host can allocate.
const MaxOverrideFootprints = 16

// MaxDRAMBytes bounds the machine DRAM a run sizes from its footprint,
// footprint/Pressure. The memories' tag arrays (AGG P-node memories, COMA
// attraction memories, NUMA on-chip memory) are allocated up front in
// proportion to it, and an AGG D-node's Data/Pointer arrays grow with use up
// to its share of it, so a tiny pressure or a huge footprint would otherwise
// ask the host for an array it cannot make (an out-of-range makeslice, or an
// out-of-memory abort no recover can catch). It also bounds a run's line
// numbers at 2^23 (of 128-byte lines), far inside the uint32 back pointers
// of the D-nodes' Pointer arrays. The largest paper
// configuration, dbase at scale 1 and 25% pressure, sizes 64 MB; the bound
// is 16 times that.
const MaxDRAMBytes = 1 << 30

// MaxThreads bounds Config.Threads, and an AGG machine's D-node count the
// same way. Every node gets its own cache tag arrays, memory and mesh port, and
// every thread its own reference stream, all allocated up front, so an
// unbounded count asks the host for an arbitrary amount of memory. The
// paper's machine and every experiment here have at most 32 nodes of each
// kind; the bound is 8 times that.
const MaxThreads = 256

// Size computes the memory layout for cfg and app.
func Size(cfg Config, fp uint64) (Sizing, error) {
	if cfg.Threads <= 0 || cfg.Threads > MaxThreads {
		return Sizing{}, fmt.Errorf("machine: threads %d outside [1,%d]", cfg.Threads, MaxThreads)
	}
	if !(cfg.Pressure > 0 && cfg.Pressure <= 1) {
		return Sizing{}, fmt.Errorf("machine: pressure %v outside (0,1]", cfg.Pressure)
	}
	if dram := float64(fp) / cfg.Pressure; dram > MaxDRAMBytes {
		return Sizing{}, fmt.Errorf("machine: the %d-byte footprint at pressure %v sizes %.3g bytes of DRAM, over the %d-byte bound",
			fp, cfg.Pressure, dram, MaxDRAMBytes)
	}
	if limit := MaxOverrideFootprints * fp; cfg.PMemBytesOverride > limit || cfg.DMemTotalOverride > limit {
		return Sizing{}, fmt.Errorf("machine: memory override (pmem %d, dmem total %d bytes) exceeds %d x the %d-byte footprint",
			cfg.PMemBytesOverride, cfg.DMemTotalOverride, MaxOverrideFootprints, fp)
	}
	total := uint64(float64(fp) / cfg.Pressure)
	s := Sizing{TotalDRAM: total, PNodes: cfg.Threads}
	switch cfg.Arch {
	case NUMA, COMA:
		s.PMemBytes = roundLines(total/uint64(cfg.Threads), 4)
	case AGG:
		d := cfg.DNodes
		if d == 0 {
			r := cfg.DRatio
			if r == 0 {
				r = 1
			}
			d = cfg.Threads / r
		}
		if d <= 0 {
			return Sizing{}, fmt.Errorf("machine: AGG needs at least one D-node")
		}
		if d > MaxThreads {
			return Sizing{}, fmt.Errorf("machine: %d D-nodes over the bound of %d", d, MaxThreads)
		}
		s.DNodes = d
		pPer := total / 2 / uint64(cfg.Threads)
		if cfg.PMemBytesOverride != 0 {
			pPer = cfg.PMemBytesOverride
		}
		s.PMemBytes = roundLines(pPer, 4)
		dTotal := total / 2
		if cfg.DMemTotalOverride != 0 {
			dTotal = cfg.DMemTotalOverride
		}
		s.DMemLines = int(dTotal / uint64(d) / workload.LineBytes)
		minLines := int(workload.PageBytes / workload.LineBytes * 2)
		if s.DMemLines < minLines {
			s.DMemLines = minLines
		}
	default:
		return Sizing{}, fmt.Errorf("machine: unknown architecture %q", cfg.Arch)
	}
	return s, nil
}

// Run executes one simulation and returns its measurements.
func Run(cfg Config) (*Result, error) { return run(cfg, true) }

// run is Run; floor selects whether the engine's resource calendars prune
// below the scheduler floor (results are identical either way — the
// identity test runs both).
func run(cfg Config, floor bool) (*Result, error) {
	if !(cfg.HandlerScale >= 0 && cfg.HandlerScale <= MaxHandlerScale) {
		return nil, fmt.Errorf("machine: handler scale %v outside [0,%d]", cfg.HandlerScale, MaxHandlerScale)
	}
	app, err := workload.New(cfg.App)
	if err != nil {
		return nil, err
	}
	fp := app.Footprint()
	sz, err := Size(cfg, fp)
	if err != nil {
		return nil, err
	}
	l1, l2 := app.Caches()

	var eng engine
	var scanner cpu.Scanner
	var aggM *core.Machine
	switch cfg.Arch {
	case AGG:
		c := core.DefaultConfig(cfg.Threads, sz.DNodes, sz.PMemBytes, sz.DMemLines, l1, l2)
		if cfg.OnChipFraction != 0 {
			c.OnChipFraction = cfg.OnChipFraction
		}
		if cfg.SharedMinFrac != 0 {
			c.SharedMinFrac = cfg.SharedMinFrac
		}
		if cfg.HandlerScale != 0 {
			c.Costs = c.Costs.Scale(cfg.HandlerScale)
		}
		c.DMemSetAssoc = cfg.DMemSetAssoc
		m, err := core.New(c)
		if err != nil {
			return nil, err
		}
		eng, scanner, aggM = m, m, m
	case NUMA:
		c := numa.DefaultConfig(cfg.Threads, sz.PMemBytes, l1, l2)
		c.OnChipBytes = roundPow2(sz.PMemBytes/2/workload.LineBytes/4) * 4 * workload.LineBytes
		m, err := numa.New(c)
		if err != nil {
			return nil, err
		}
		eng = m
	case COMA:
		c := coma.DefaultConfig(cfg.Threads, sz.PMemBytes, l1, l2)
		m, err := coma.New(c)
		if err != nil {
			return nil, err
		}
		eng = m
	}

	base := eng.Base()
	tr := cfg.Trace
	if tr == nil {
		tr = obs.Nop()
	}
	base.SetTrace(tr)
	base.SetSpans(cfg.Spans)
	base.SetProfile(cfg.Profile)
	base.SetAudit(cfg.Audit)
	if tr.On() {
		tr.Emit(obs.EvRunStart, 0, 0, -1, uint64(cfg.Threads), uint64(sz.DNodes))
	}

	streams := app.Streams(cfg.Threads)
	sched := sim.NewScheduler()
	var f *sim.Time // nil: calendars keep their whole past
	if floor {
		f = sched.Floor()
	}
	base.SetFloor(f)
	sd := cpu.NewSyncDomain(sched)
	threads := make([]*cpu.Thread, cfg.Threads)

	res := &Result{
		Arch:        cfg.Arch,
		App:         app.Name(),
		Threads:     cfg.Threads,
		PNodes:      sz.PNodes,
		DNodes:      sz.DNodes,
		PhaseEnd:    make(map[int]sim.Time),
		TotalDRAM:   sz.TotalDRAM,
		PMemBytes:   sz.PMemBytes,
		DMemLines:   sz.DMemLines,
		EffPressure: float64(fp) / float64(sz.TotalDRAM),
	}

	var measureStart sim.Time
	var snap stats.Machine
	var meshSnap mesh.Stats
	var dBusySnap, dWaitSnap sim.Time
	crossed := make(map[int]int)
	// Capture scalars, not cfg: the full Config is past the compiler's
	// by-value capture limit and would be heap-boxed by the closure.
	nThreads, phaseProgress := cfg.Threads, cfg.PhaseProgress
	hook := func(tid, phase int, at sim.Time) {
		crossed[phase]++
		if at > res.PhaseEnd[phase] {
			res.PhaseEnd[phase] = at
		}
		if crossed[phase] == nThreads {
			if tr.On() {
				tr.Emit(obs.EvPhase, at, 0, -1, uint64(phase), uint64(nThreads))
			}
			if phaseProgress != nil {
				phaseProgress(phase, at)
			}
		}
		if phase == workload.PhaseMeasured {
			// Exclude warm-up initialization from this thread's numbers;
			// the engine counters are snapshot once everyone has crossed.
			threads[tid].ResetMeasurement()
			if crossed[phase] == nThreads {
				measureStart = res.PhaseEnd[phase]
				snap = *base.Stats()
				meshSnap = base.Mesh().Stats()
				if aggM != nil {
					dBusySnap, dWaitSnap, _ = aggM.DProcUtil()
				}
			}
		}
		if phase == workload.PhaseSecond && crossed[phase] == nThreads && aggM != nil {
			res.CensusPhase2 = aggM.CensusTotal()
		}
	}

	tm := &translatedMem{eng: eng, scan: scanner, pt: newPageTable()}
	var tscan cpu.Scanner
	if scanner != nil {
		tscan = tm
	}
	for i := 0; i < cfg.Threads; i++ {
		threads[i] = cpu.NewThread(i, tm, tscan, streams[i], sd, cpu.DefaultParams())
		threads[i].SetPhaseHook(hook)
		sched.Add(threads[i])
	}
	if err := sched.Run(); err != nil {
		return nil, fmt.Errorf("machine: %s/%s: %w", cfg.Arch, app.Name(), err)
	}

	res.PerThread = make([]stats.Thread, cfg.Threads)
	for i, th := range threads {
		res.PerThread[i] = th.Stats()
	}
	res.Breakdown = stats.NewBreakdown(res.PerThread)
	res.Machine = base.Stats().Diff(&snap)
	res.Mesh = base.Mesh().Stats().Diff(meshSnap)
	for p, t := range res.PhaseEnd {
		if t > measureStart {
			res.PhaseEnd[p] = t - measureStart
		} else {
			res.PhaseEnd[p] = 0
		}
	}
	if cfg.Metrics != nil {
		CollectMetrics(cfg.Metrics, res)
	}
	if cfg.Profile != nil && cfg.Profile.On() {
		prof := cfg.Profile
		prof.SetMeta(string(cfg.Arch) + "/" + app.Name())
		prof.SetExec(res.Breakdown.Exec)
		for i := range res.PerThread {
			t := &res.PerThread[i]
			prof.AddPNode(i, t.Busy, t.MemStall, t.SyncSpin, t.Finish)
		}
		base.FinishProfile()
	}
	if cfg.Audit {
		res.AuditViolations, res.AuditSamples = base.AuditReport()
	}
	if aggM != nil {
		res.Census = aggM.CensusTotal()
		res.DMem = aggM.DMemStatsTotal()
		busy, waited, _ := aggM.DProcUtil()
		res.DProcBusy, res.DProcWaited = busy-dBusySnap, waited-dWaitSnap
		if err := aggM.CheckInvariants(); err != nil {
			return nil, fmt.Errorf("machine: post-run invariant violation: %w", err)
		}
	}
	return res, nil
}

// CollectMetrics folds a run's measurements into a registry: the coherence
// counters (obs.CollectMachine), mesh traffic, and the Figure 6 breakdown.
// Counters accumulate across runs sharing the registry; gauges hold the last
// run's values. It only reads Result, so the service layer can fold metrics
// for cache-served results identically to freshly simulated ones.
func CollectMetrics(r *obs.Registry, res *Result) {
	obs.CollectMachine(r, &res.Machine)
	r.Counter("mesh.messages").Add(res.Mesh.Messages)
	r.Counter("mesh.bytes").Add(res.Mesh.Bytes)
	r.Counter("mesh.hops").Add(res.Mesh.HopsTotal)
	r.Counter("mesh.queued_cycles").Add(uint64(res.Mesh.Queued))
	r.Counter("runs").Inc()
	r.Gauge("run.exec_cycles").Set(float64(res.Breakdown.Exec))
	r.Gauge("run.mem_cycles").Set(float64(res.Breakdown.Memory))
	r.Gauge("run.proc_cycles").Set(float64(res.Breakdown.Processor))
}
