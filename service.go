package pimdsm

import (
	"io"
	"log/slog"
	"runtime"

	"pimdsm/internal/cluster"
	"pimdsm/internal/obs"
	"pimdsm/internal/obs/svclog"
	"pimdsm/internal/serve"
)

// The service layer (cmd/aggsimd) turns the simulator into a long-running
// daemon: jobs are batches of configurations, identical configurations are
// deduplicated through a content-addressed LRU result cache with
// singleflight collapsing of in-flight work, and a bounded admission window
// rejects excess submissions immediately instead of queueing without bound.
// See internal/serve for the subsystem and DESIGN.md §10 for the
// architecture.
type (
	// ServerOptions configures a simulation service.
	ServerOptions = serve.Options
	// Server is the simulation service: admission, cache, slot queue.
	Server = serve.Server
	// ServerStats is the service counters snapshot.
	ServerStats = serve.ServerStats
	// JobSpec is one service submission: a named, prioritized batch.
	JobSpec = serve.JobSpec
	// JobStatus is the wire snapshot of a submitted job.
	JobStatus = serve.JobStatus
	// ConfigSpec is the wire form of a Config: only the result-determining
	// fields, so it both addresses the cache and travels over HTTP.
	ConfigSpec = serve.ConfigSpec
	// ServiceAPI is the JSON/HTTP surface over a Server.
	ServiceAPI = serve.API
	// ServiceClient talks to an aggsimd daemon.
	ServiceClient = serve.Client
	// BusyError is the admission-control rejection, carrying a retry-after
	// hint (and, in tenant mode, which tenant and gate produced it).
	BusyError = serve.BusyError
	// ForbiddenError rejects an authenticated submission the tenant is not
	// authorized to make (priority above its ceiling).
	ForbiddenError = serve.ForbiddenError
	// Tenant is one registered identity in the multi-tenant service edge.
	Tenant = serve.Tenant
	// TenantRegistry is the service's tenant set: API-key authentication,
	// token buckets and quotas (usage is counted by the Server).
	TenantRegistry = serve.Tenants
	// TenantUsage is one tenant's resource-consumption counters.
	TenantUsage = serve.TenantUsage
	// TenantSnapshot is the wire view of one tenant (quotas, live state,
	// usage; never the key).
	TenantSnapshot = serve.TenantSnapshot
	// JobState is a job's lifecycle state.
	JobState = serve.JobState
	// JobEvent is one typed entry in a job's lifecycle event chain.
	JobEvent = svclog.JobEvent
	// JobEventKind names a lifecycle transition (submitted, started, ...).
	JobEventKind = svclog.JobEventKind
	// EventLog is the bounded in-memory lifecycle event log with live
	// subscriptions; hand one to ServerOptions.Events to enable tracing.
	EventLog = svclog.EventLog
	// SoakOptions configures a service load/soak run.
	SoakOptions = serve.SoakOptions
	// SoakReport is the outcome of a soak run: latency percentiles, admission
	// pushback counts and lifecycle-validation results.
	SoakReport = serve.SoakReport
	// ArtifactStore is the flight recorder's bounded on-disk artifact store.
	ArtifactStore = serve.ArtifactStore
	// ArtifactStats is the artifact store's counter snapshot.
	ArtifactStats = serve.ArtifactStats

	// The cluster layer (internal/cluster + DESIGN.md §15): N aggsimd
	// daemons form a named cluster via gossip membership, partition the
	// content-addressed key space with a consistent-hash ring, route work to
	// key owners and replicate hot results to ring successors. Attach a node
	// with Server.AttachCluster.
	// ClusterConfig configures one membership node (name, self, seeds,
	// replicas, timing).
	ClusterConfig = cluster.Config
	// ClusterNode is one member: membership table, ring, heartbeat loop.
	ClusterNode = cluster.Node
	// ClusterNodeStats is the membership node's counter snapshot.
	ClusterNodeStats = cluster.Stats
	// ClusterMember is one entry in a node's membership view.
	ClusterMember = cluster.Member
	// ClusterStats is the serve-layer cluster section of ServerStats.
	ClusterStats = serve.ClusterStats

	// The perf-diff engine (internal/obs/compare.go): RunDump gathers one
	// run's flight-recorder record, CompareRuns diffs two of them, and
	// BenchTimeline tracks the committed BENCH_*.json throughput trajectory.
	// ProfileSnapshot is the serializable cycle-attribution aggregate.
	ProfileSnapshot = obs.ProfileSnapshot
	// SpanBreakdown is the serializable per-phase latency decomposition.
	SpanBreakdown = obs.SpanBreakdown
	// RunDump bundles one run's telemetry for comparison.
	RunDump = obs.RunDump
	// CompareOptions sets the diff's significance thresholds.
	CompareOptions = obs.CompareOptions
	// CompareReport is the typed perf-diff report (JSON + WriteText).
	CompareReport = obs.CompareReport
	// BenchDoc is one parsed BENCH_<date>.json snapshot.
	BenchDoc = obs.BenchDoc
	// TimelineReport is the cross-snapshot throughput trajectory report.
	TimelineReport = obs.TimelineReport
)

// CompareRuns diffs two runs' phase decompositions, profiler buckets and
// metric registries, naming the dominant regressed phase. See obs.Compare.
func CompareRuns(a, b RunDump, opt CompareOptions) *CompareReport {
	return obs.Compare(a, b, opt)
}

// BenchTimeline folds parsed BENCH snapshots into per-(arch,app)
// trajectories with regression flagging. See obs.Timeline.
func BenchTimeline(docs []*BenchDoc, threshold float64) *TimelineReport {
	return obs.Timeline(docs, threshold)
}

// ParseBenchDoc parses one committed BENCH_<date>.json snapshot, tolerating
// both the 2026-08-05 schema (no shard/GOMAXPROCS provenance) and the full
// current one.
func ParseBenchDoc(data []byte) (*BenchDoc, error) { return obs.ParseBenchDoc(data) }

// Job lifecycle states.
const (
	JobQueued  JobState = serve.JobQueued
	JobRunning JobState = serve.JobRunning
	JobDone    JobState = serve.JobDone
	JobFailed  JobState = serve.JobFailed
	JobAborted JobState = serve.JobAborted
)

// NewEventLog returns a lifecycle event log retaining the last cap events
// globally (complete chains are kept per job); cap <= 0 picks the default.
func NewEventLog(cap int) *EventLog { return svclog.NewEventLog(cap) }

// NewClusterNode builds a cluster membership node from cfg (it does not
// start heartbeating until Server.AttachCluster). See cluster.New.
func NewClusterNode(cfg ClusterConfig) (*ClusterNode, error) { return cluster.New(cfg) }

// LoadTenants reads and validates a tenants file ({"tenants":[{...}]}),
// returning the registry to hand to ServerOptions.Tenants.
func LoadTenants(path string) (*TenantRegistry, error) { return serve.LoadTenants(path) }

// NewTenants builds a tenant registry from an in-memory tenant list (tests,
// embedded configuration). Same validation as LoadTenants.
func NewTenants(list []Tenant) (*TenantRegistry, error) { return serve.NewTenants(list) }

// ValidateLogLevel rejects a log-level string NewServiceLogger would fall
// back from: anything but "debug", "info", "warn", "error" or empty.
func ValidateLogLevel(level string) error {
	_, err := svclog.ParseLevel(level)
	return err
}

// NewServiceLogger builds the service's structured JSON logger. level is
// "debug", "info", "warn" or "error" (empty means info); deterministic drops
// wall-clock timestamps so log lines are byte-stable under test. An invalid
// level falls back to info.
func NewServiceLogger(w io.Writer, level string, deterministic bool) *slog.Logger {
	lv, err := svclog.ParseLevel(level)
	if err != nil {
		lv = slog.LevelInfo
	}
	return svclog.New(w, lv, deterministic)
}

// RunSoak storms a daemon with opt.Clients concurrent clients submitting
// opt.JobsPerClient jobs each, then audits the daemon's answers: latency
// SLOs, bounded admission pushback, exactly-once simulation and complete
// ordered lifecycle event chains. See internal/serve.RunSoak.
func RunSoak(addr string, opt SoakOptions) (*SoakReport, error) {
	return serve.RunSoak(addr, opt)
}

// NewServer starts a simulation service. Every simulation the node runs —
// a job's cache misses, a peer's forwarded compute, a last-resort local
// run — takes one slot of a single per-node pool, the node's only queue, so
// a lone job's misses fill every idle slot and concurrent jobs share them by
// priority. The budget is opt.Slots, or when unset serve.DefaultSlots ×
// sweepWorkers (sweepWorkers 0 means one per CPU). A result depends only on
// its Config, never on which slot ran it, so responses are byte-identical at
// any budget.
func NewServer(opt ServerOptions, sweepWorkers int) (*Server, error) {
	if opt.Slots <= 0 {
		if sweepWorkers <= 0 {
			sweepWorkers = runtime.NumCPU()
		}
		opt.Slots = serve.DefaultSlots * sweepWorkers
	}
	return serve.New(opt)
}

// NewServiceAPI mounts the service's JSON/HTTP API; dash (may be nil) keeps
// serving the dashboard routes alongside it.
func NewServiceAPI(srv *Server, dash *Dashboard) *ServiceAPI {
	return serve.NewAPI(srv, dash)
}

// NewServiceClient returns a client for the aggsimd daemon at addr
// ("host:port" or a full URL).
func NewServiceClient(addr string) *ServiceClient { return serve.NewClient(addr) }

// SpecOfConfig extracts the wire/cache-key form of a config, dropping the
// record-only observer attachments.
func SpecOfConfig(cfg Config) ConfigSpec { return serve.SpecOf(cfg) }

// Figure6Specs returns the paper's Figure 6 configuration set for one
// application (NUMA, COMA and the AGG splits at 25% and 75% pressure) in
// wire form — the standard batch to submit to an aggsimd daemon.
func Figure6Specs(app string, threads int, scale float64) []ConfigSpec {
	cs := figure6Configs(app, Options{Threads: threads, Scale: scale}.withDefaults())
	out := make([]ConfigSpec, len(cs))
	for i := range cs {
		out[i] = serve.SpecOf(cs[i].cfg)
	}
	return out
}

// WriteFileAtomic writes an artifact via a temp file renamed into place, so
// a failed writer never truncates a previous good artifact.
func WriteFileAtomic(path string, write func(w io.Writer) error) error {
	return obs.WriteFileAtomic(path, write)
}
