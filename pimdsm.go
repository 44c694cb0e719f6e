// Package pimdsm is a from-scratch reproduction of "Toward a Cost-Effective
// DSM Organization That Exploits Processor-Memory Integration" (Torrellas,
// Yang, Nguyen — HPCA 2000).
//
// It provides an execution-driven simulator of the paper's AGG architecture
// — a cache-coherent DSM built from commodity Processor-In-Memory chips with
// tagged local memories organized as caches and software directory nodes
// (D-nodes) — together with the CC-NUMA and Flat COMA baselines, synthetic
// versions of the seven evaluation applications, and experiment drivers that
// regenerate every table and figure of the paper's evaluation section.
//
// Quick start:
//
//	res, err := pimdsm.Run(pimdsm.Config{
//	        Arch:     pimdsm.AGG,
//	        App:      pimdsm.App("fft", 1.0),
//	        Threads:  32,
//	        Pressure: 0.75,
//	        DRatio:   1,
//	})
//
// The per-figure drivers (Figure6, Figure7, …, Table2) each return
// structured data plus a formatted text rendering; cmd/figures regenerates
// everything from the command line.
package pimdsm

import (
	"io"

	"pimdsm/internal/machine"
	"pimdsm/internal/obs"
	"pimdsm/internal/sim"
	"pimdsm/internal/workload"
)

// Arch selects the simulated architecture.
type Arch = machine.Arch

// The three organizations of the paper's evaluation (§3).
const (
	AGG  Arch = machine.AGG
	NUMA Arch = machine.NUMA
	COMA Arch = machine.COMA
)

// Config describes one simulation run. See machine.Config for field
// documentation.
type Config = machine.Config

// Result carries a run's measurements.
type Result = machine.Result

// AppSpec selects and scales one of the benchmark applications:
// fft, radix, ocean, barnes, swim, tomcatv, dbase, dbase-opt.
type AppSpec = workload.Spec

// Time is simulated time in CPU cycles (1 GHz: also nanoseconds).
type Time = sim.Time

// App builds an application spec. Scale 1.0 is the calibrated default size;
// 0 means 1.0.
func App(name string, scale float64) AppSpec {
	return AppSpec{Name: name, Scale: scale}
}

// Apps lists the seven applications in the paper's order (Table 3).
func Apps() []string { return workload.Names() }

// Run executes one simulation.
func Run(cfg Config) (*Result, error) { return machine.Run(cfg) }

// Trace is a fixed-capacity ring buffer of typed protocol events. Set one on
// Config.Trace (or Options.Trace) to record a run; recording never changes
// simulation results. See internal/obs for the event taxonomy.
type Trace = obs.Trace

// Metrics is a registry of named counters, gauges and latency histograms.
// Set one on Config.Metrics (or Options.Metrics) to accumulate run counters.
type Metrics = obs.Registry

// NewTrace returns a trace ring holding up to capacity events (rounded up to
// a power of two; 0 means 65536). When full, the oldest events are dropped.
func NewTrace(capacity int) *Trace { return obs.NewTrace(capacity) }

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// WriteChromeTrace writes t in Chrome trace_event JSON format — loadable in
// chrome://tracing or https://ui.perfetto.dev.
func WriteChromeTrace(w io.Writer, t *Trace) error { return obs.WriteChromeJSONEvents(w, t.Events()) }

// WriteBinaryTrace writes t in the compact PDT1 binary format (40 bytes per
// event); `pimdsm trace dump` pretty-prints it.
func WriteBinaryTrace(w io.Writer, t *Trace) error { return t.WriteBinary(w) }

// Spans records one transaction span per memory access with per-phase cycle
// attribution (issue, request trip, directory occupancy, owner fetch, reply
// trip, retirement). Set one on Config.Spans to record a run; like Trace,
// recording never changes simulation results. See internal/obs for the phase
// taxonomy and Decompose for the aggregated report.
type Spans = obs.Spans

// SpanPhase names one leg of a transaction's critical path.
type SpanPhase = obs.Phase

// NumSpanPhases is the number of span phases.
const NumSpanPhases = obs.NumPhases

// NewSpans returns an enabled span recorder keeping the most recent `keep`
// retired spans (rounded up to a power of two; 0 means 4096) alongside full
// aggregate tables.
func NewSpans(keep int) *Spans { return obs.NewSpans(keep) }

// WriteBinarySpans writes a recorder in the compact PDS1 binary format;
// `pimdsm spans dump` pretty-prints it.
func WriteBinarySpans(w io.Writer, s *Spans) error { return s.WriteBinary(w) }

// Profile is the sim-time accounting profiler: per-node cycle attribution by
// protocol handler class, P-node busy/stall buckets, mesh-link utilization
// with queue-depth samples, and folded-stack flamegraph export. Set one on
// Config.Profile (or Options.Profile) to record a run; like Trace and Spans,
// recording never changes simulation results.
type Profile = obs.Profile

// NewProfile returns an enabled profiler; node and mesh tables are sized
// automatically when a run attaches it.
func NewProfile() *Profile { return obs.NewProfile() }

// WriteFoldedProfile writes p's cycle attribution as collapsed stacks — the
// folded format consumed by speedscope, inferno and flamegraph.pl.
func WriteFoldedProfile(w io.Writer, p *Profile) error { return p.WriteFolded(w) }

// CriticalPath aggregates a span recorder and reports which transaction
// phase — and machine resource — bounds end-to-end latency.
func CriticalPath(s *Spans) obs.CritPath { return obs.CriticalPathOf(s) }

// Dashboard serves live run state over HTTP: pre-rendered text sections plus
// expvar and pprof. See Dashboard.ListenAndServe and the -http flag on
// cmd/aggsim and cmd/figures.
type Dashboard = obs.Dashboard

// NewDashboard returns an empty dashboard.
func NewDashboard() *Dashboard { return obs.NewDashboard() }

// StartProfiles starts the pprof CPU and heap profiles the -cpuprofile and
// -memprofile flags of cmd/aggsim and cmd/figures ask for ("" for none) and
// returns the function that flushes them.
func StartProfiles(cpu, mem string) (stop func(), err error) { return obs.StartProfiles(cpu, mem) }

// StatusLine returns a Sweep/Options progress callback that renders a live
// status line to w (normally os.Stderr).
func StatusLine(w io.Writer, label string) func(done, total, i int) {
	return obs.StatusLine(w, label)
}

// ReconfigCosts is the §4.2 dynamic-reconfiguration overhead model.
type ReconfigCosts = machine.ReconfigCosts

// ReconfigResult reports the Figure 10(a) experiment.
type ReconfigResult = machine.ReconfigResult

// RunReconfig runs phase 1 on (aP, aD), reconfigures, and runs phase 2 on
// (bP, bD), charging the paper's overhead model.
func RunReconfig(app AppSpec, pressure float64, aP, aD, bP, bD int) (*ReconfigResult, error) {
	return machine.RunReconfig(app, pressure, aP, aD, bP, bD, machine.DefaultReconfigCosts())
}

// TuneResult reports the §2.3 static-tuning procedure.
type TuneResult = machine.TuneResult

// TuneDRatio profiles an application on a wasteful 1/1 AGG machine and uses
// the recorded D-node processor utilization as the paper's hint for how many
// D-nodes subsequent runs should request (§2.3). targetUtil 0 means 0.5.
func TuneDRatio(app AppSpec, pressure float64, threads int, targetUtil float64) (*TuneResult, error) {
	return machine.TuneDRatio(app, pressure, threads, targetUtil)
}

// SplitPoint is one P&D division of a fixed machine (the paper's Figure 4).
type SplitPoint = machine.SplitPoint

// OptimalSplit evaluates P&D divisions of a fixed machine size and returns
// the evaluated points plus the index of the fastest.
func OptimalSplit(app AppSpec, pressure float64, total, minP int) ([]SplitPoint, int, error) {
	return machine.OptimalSplit(app, pressure, total, minP, nil)
}
