package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pimdsm/internal/cluster"
	"pimdsm/internal/machine"
	"pimdsm/internal/obs"
	"pimdsm/internal/obs/svclog"
)

// RunFunc simulates one configuration. A result depends only on its Config,
// never on which goroutine or slot ran it, so results are byte-identical at
// any simulation budget.
type RunFunc func(cfg machine.Config) (*machine.Result, error)

// DefaultSlots is the simulation budget when Options.Slots is unset.
const DefaultSlots = 2

// Options configures a Server.
type Options struct {
	// Slots is the node's simulation budget: the most simulations running at
	// once, whoever asked for them — a job's cache misses, a peer's forwarded
	// compute or a front door's last-resort local run. One job may fill every
	// free slot; concurrent jobs share them, served by priority (default
	// DefaultSlots).
	Slots int
	// QueueLimit is the admission window: once QueueLimit + Slots jobs are
	// unfinished, submissions are rejected immediately with a retry-after
	// hint instead of queueing without bound (default 16).
	QueueLimit int
	// CacheEntries bounds the LRU result cache (default 512).
	CacheEntries int
	// CachePath, when non-empty, persists the cache index there on
	// Shutdown and reloads it in NewServer.
	CachePath string
	// Run simulates one configuration (nil means machine.Run). The server
	// calls it only while holding a slot.
	Run RunFunc
	// Log receives the service's structured log lines (nil = discard).
	// Logging is record-only: results are byte-identical with it on or off.
	Log *slog.Logger
	// Events, when non-nil, records every job's lifecycle (submitted,
	// queued, started, per-config cache_hit/joined/simulated/persisted,
	// done/failed/aborted) with wall-time and queue-depth attribution. The
	// same log feeds GET /api/v1/jobs/{id}/events and the SSE stream.
	Events *svclog.EventLog
	// TelemetrySample head-samples every Nth submission into the flight
	// recorder (as if it had set JobSpec.Telemetry); 0 disables sampling.
	// Sampled jobs carry spans, so they run their simulations one slot at a
	// time — the always-on observability tax is bounded by picking N.
	TelemetrySample int
	// ArtifactDir, when non-empty, persists flight-recorder artifacts there
	// in a bounded on-disk store whose index (like the result cache's)
	// survives daemon restarts.
	ArtifactDir string
	// ArtifactBytes bounds the artifact store; least-recently-used records
	// are evicted past it (default 64 MiB).
	ArtifactBytes int64
	// Tenants, when non-nil, turns on the multi-tenant edge: every
	// submission must name a registered tenant (the HTTP layer stamps
	// JobSpec.Tenant from the API key), and the tenant's token bucket,
	// queue/concurrency quotas and priority ceiling gate admission in front
	// of the shared window. Nil means anonymous open access — the
	// pre-tenancy behavior, byte for byte.
	Tenants *Tenants
	// UsagePath, when non-empty (and Tenants is set), persists the
	// cumulative per-tenant usage ledger there on Shutdown and restores it
	// in New, like the cache index.
	UsagePath string
}

func (o Options) withDefaults() Options {
	if o.Slots <= 0 {
		o.Slots = DefaultSlots
	}
	if o.QueueLimit <= 0 {
		o.QueueLimit = 16
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 512
	}
	if o.Log == nil {
		o.Log = svclog.Nop()
	}
	if o.Run == nil {
		o.Run = machine.Run
	}
	return o
}

// JobSpec is a submission: a batch of configurations that runs as one unit
// of scheduling. Cached configurations are served without simulation;
// configurations already being simulated by another job are joined, not
// repeated (singleflight); only the remainder is run.
type JobSpec struct {
	Name     string `json:"name,omitempty"`
	Priority int    `json:"priority,omitempty"`
	// Metrics gives the job a metrics artifact: machine.CollectMetrics
	// folded over every result (cached or simulated), in config order.
	Metrics bool `json:"metrics,omitempty"`
	// Spans attaches a per-job transaction-span recorder. Spans only cover
	// the configurations this job actually simulates (cache hits recorded
	// no spans), and force the job's own runs serial, exactly like the
	// figure drivers' shared-observer mode.
	Spans bool `json:"spans,omitempty"`
	// Telemetry opts the job into the flight recorder: metrics, spans and a
	// per-config profiler all attach (implying the spans' serial-run cost),
	// and the merged record persists as profile/folded/decompose artifacts.
	// All of it is record-only — results stay byte-identical.
	Telemetry bool `json:"telemetry,omitempty"`
	// Tenant attributes the job. With a tenant registry configured it names
	// a registered tenant and is stamped server-side from the API key (a
	// client-supplied value is overwritten); in anonymous mode it is cleared.
	Tenant string `json:"tenant,omitempty"`

	Configs []ConfigSpec `json:"configs"`
}

// JobState is the lifecycle of a job.
type JobState string

// Job lifecycle states.
const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
	// JobAborted marks jobs that had not started when the server shut down.
	JobAborted JobState = "aborted"
)

// Job is one admitted submission. All mutable fields are guarded by the
// server mutex; read them through Status.
type Job struct {
	id    string
	seq   uint64
	spec  JobSpec  // Configs dropped once finished, unless telemetry
	keys  []uint64 // spec.Configs' cache keys, in config order; dropped with them
	total int      // len(spec.Configs) at admission

	state     JobState
	submitted time.Time
	started   time.Time
	finished  time.Time

	done      int
	cacheHits int
	simulated int
	joins     int
	forwarded int // configs resolved by a cluster peer (forward or replica recovery)
	err       error

	resultJSON [][]byte
	spans      *obs.Spans

	// Flight-recorder state (telemetry jobs only): the merged profile
	// snapshot and folded stacks accumulate per simulated config under the
	// server mutex; artifacts holds the finished record when no on-disk
	// store is configured.
	telemetry bool
	profSnap  *obs.ProfileSnapshot
	folded    []byte
	artifacts map[string][]byte

	// doneCh closes when the job reaches a terminal state; a job that
	// finishes inside Submit shares closedDone.
	doneCh chan struct{}
}

// JobStatus is the wire snapshot of a job.
type JobStatus struct {
	ID        string   `json:"id"`
	Name      string   `json:"name,omitempty"`
	State     JobState `json:"state"`
	Priority  int      `json:"priority,omitempty"`
	Total     int      `json:"total"`
	Done      int      `json:"done"`
	CacheHits int      `json:"cache_hits"`
	Simulated int      `json:"simulated"`
	Joins     int      `json:"singleflight_joins"`
	// Forwarded counts configs resolved by a cluster peer. It is zero (and
	// absent from the JSON) outside cluster mode.
	Forwarded int    `json:"forwarded,omitempty"`
	Telemetry bool   `json:"telemetry,omitempty"`
	Tenant    string `json:"tenant,omitempty"`
	Error     string `json:"error,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// BusyError is the admission-control rejection. RetryAfter estimates when a
// slot frees up (EWMA job time scaled by the backlog per slot). With a
// tenant registry configured, Tenant names who was pushed back and Reason
// which gate rejected — the shared window (RejectWindow) or one of the
// tenant's own limits (RejectRate, RejectQueueQuota, RejectActiveQuota),
// each carrying the tenant's personal Retry-After.
type BusyError struct {
	RetryAfter time.Duration
	Tenant     string
	Reason     string
}

func (e *BusyError) Error() string {
	reason := e.Reason
	if reason == "" {
		reason = RejectWindow
	}
	if e.Tenant != "" {
		return fmt.Sprintf("serve: tenant %s %s, retry after %s", e.Tenant, reason, e.RetryAfter)
	}
	return fmt.Sprintf("serve: %s, retry after %s", reason, e.RetryAfter)
}

// ErrDraining rejects submissions during shutdown.
var ErrDraining = errors.New("serve: server is shutting down")

// Server is the simulation service: admission control in Submit, one
// goroutine per admitted job, the content-addressed cache, and the pool of
// simulation slots every run on this node takes, the node's only queue.
type Server struct {
	opt       Options
	m         *metrics
	cache     *Cache
	artifacts *ArtifactStore

	mu       sync.Mutex
	jobs     []*Job // jobs[seq-1]: every job, in submission order
	queued   int    // admitted jobs not started
	running  int    // started jobs not finished
	draining bool
	wg       sync.WaitGroup // job goroutines

	ewmaJobSec float64

	// Cluster mode (AttachCluster): the peer node, guarded by mu like the
	// rest. clusterWG tracks the async replication goroutines so Shutdown can
	// wait for them.
	cluster       *cluster.Node
	clusterWG     sync.WaitGroup
	clusterHTTP   *http.Client
	clusterClosed bool // set under mu before clusterWG.Wait; gates new Add calls

	slots slotPool
}

// New starts a server: restores the cache index, the artifact index and the
// usage ledger when present (persist.go: a missing file is a fresh start, a
// corrupt one an error).
func New(opt Options) (*Server, error) {
	opt = opt.withDefaults()
	s := &Server{opt: opt}
	s.m = newMetrics(s)
	s.cache = newCache(opt.CacheEntries, s.m)
	if opt.CachePath != "" {
		var idx index
		if err := load(opt.CachePath, cacheIndexVersion, &idx); err != nil {
			return nil, err
		}
		s.cache.LoadIndex(&idx)
	}
	if opt.ArtifactDir != "" {
		store, err := openArtifactStore(opt.ArtifactDir, opt.ArtifactBytes, s.m)
		if err != nil {
			return nil, err
		}
		s.artifacts = store
	}
	if opt.Tenants != nil && opt.UsagePath != "" {
		if err := s.loadUsage(opt.UsagePath); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Cache exposes the result cache (read-mostly: tests and stats).
func (s *Server) Cache() *Cache { return s.cache }

// Events exposes the lifecycle event log (nil when disabled).
func (s *Server) Events() *svclog.EventLog { return s.opt.Events }

// Tenants exposes the tenant registry (nil in anonymous mode).
func (s *Server) Tenants() *Tenants { return s.opt.Tenants }

// Log exposes the service logger (never nil after New).
func (s *Server) Log() *slog.Logger { return s.opt.Log }

// Ready reports whether the server can accept a submission right now: not
// draining, and the admission window has room. The reason names what is
// wrong ("draining" or "admission window saturated") for the /readyz body.
func (s *Server) Ready() (bool, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false, "draining"
	}
	if s.windowFullLocked() {
		return false, "admission window saturated"
	}
	return true, ""
}

// windowFullLocked reports whether the admission window is full: QueueLimit
// + Slots jobs unfinished. s.mu must be held.
func (s *Server) windowFullLocked() bool {
	return s.queued+s.running >= s.opt.QueueLimit+s.opt.Slots
}

// eventLocked appends one lifecycle event for j; s.mu must be held (the
// queue depth and running count attributions are read under it). config is
// -1 for job-level events.
func (s *Server) eventLocked(j *Job, kind svclog.JobEventKind, config int, cycles uint64, detail string) {
	if s.opt.Events == nil {
		return
	}
	now := time.Now()
	s.opt.Events.Append(svclog.JobEvent{
		Job: j.id, Kind: kind, At: now,
		SinceSubmitUS: now.Sub(j.submitted).Microseconds(),
		QueueDepth:    s.queued,
		Running:       s.running,
		Config:        config,
		Cycles:        cycles,
		Tenant:        j.spec.Tenant,
		Detail:        detail,
	})
}

// Submit admits spec or rejects it. Rejections are immediate and typed:
// *BusyError when the admission window (or a tenant quota) is full,
// *ForbiddenError for a submission above the tenant's priority ceiling,
// ErrDraining during shutdown, a validation error for an empty or malformed
// spec. With a tenant registry configured, spec.Tenant must name a
// registered tenant and the tenant's gates run before the shared window —
// a throttled tenant is pushed back with its own Retry-After and never
// consumes shared admission capacity; in anonymous mode it must be empty.
func (s *Server) Submit(spec JobSpec) (JobStatus, error) {
	if len(spec.Configs) == 0 {
		return JobStatus{}, errors.New("serve: job has no configurations")
	}
	for i, cs := range spec.Configs {
		if cs.Arch == "" || cs.App == "" {
			return JobStatus{}, fmt.Errorf("serve: config %d missing arch or app", i)
		}
	}
	reg := s.opt.Tenants
	if reg == nil {
		spec.Tenant = ""
	} else if spec.Tenant == "" {
		return JobStatus{}, errors.New("serve: submission names no tenant")
	}
	keys := make([]uint64, len(spec.Configs))
	for i, cs := range spec.Configs {
		keys[i] = cs.Key()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.m.rejected.With(spec.Tenant, "window").Inc()
		s.opt.Log.Warn("job_rejected", withTenant(spec.Tenant, "reason", "draining", "name", spec.Name)...)
		return JobStatus{}, ErrDraining
	}
	if reg != nil {
		if err := reg.gate(spec.Tenant, spec.Priority, s.opt.Slots, s.ewmaJobSec); err != nil {
			var be *BusyError
			switch {
			case errors.As(err, &be):
				s.m.rejected.With(spec.Tenant, reasonLabel[be.Reason]).Inc()
				s.opt.Log.Warn("job_rejected", "reason", be.Reason, "tenant", spec.Tenant,
					"name", spec.Name, "retry_after_sec", int(be.RetryAfter/time.Second))
			default:
				s.opt.Log.Warn("job_rejected", "reason", "forbidden", "tenant", spec.Tenant,
					"name", spec.Name, "err", err.Error())
			}
			return JobStatus{}, err
		}
	}
	if s.windowFullLocked() {
		s.m.rejected.With(spec.Tenant, "window").Inc()
		retry := retryAfter(s.ewmaJobSec, s.queued+s.running, s.opt.Slots)
		if reg != nil {
			s.opt.Log.Warn("job_rejected", "reason", RejectWindow,
				"name", spec.Name, "tenant", spec.Tenant,
				"queue_depth", s.queued, "retry_after_sec", int(retry/time.Second))
			return JobStatus{}, &BusyError{RetryAfter: retry, Tenant: spec.Tenant, Reason: RejectWindow}
		}
		s.opt.Log.Warn("job_rejected", "reason", "admission window full",
			"name", spec.Name, "queue_depth", s.queued, "retry_after_sec", int(retry/time.Second))
		return JobStatus{}, &BusyError{RetryAfter: retry}
	}
	if reg != nil {
		reg.commit(spec.Tenant)
	}
	seq := uint64(len(s.jobs)) + 1
	j := &Job{
		id:        fmt.Sprintf("j-%06d", seq),
		seq:       seq,
		spec:      spec,
		keys:      keys,
		total:     len(spec.Configs),
		state:     JobQueued,
		submitted: time.Now(),
	}
	// Flight recorder: an explicit opt-in, or head-sampling every Nth
	// admission. A telemetry job carries every observer at once (the spans
	// imply the serial-run cost), and its merged record persists as
	// artifacts when it finishes.
	j.telemetry = spec.Telemetry ||
		(s.opt.TelemetrySample > 0 && seq%uint64(s.opt.TelemetrySample) == 0)
	if spec.Spans || j.telemetry {
		j.spans = obs.NewSpans(0)
	}
	s.jobs = append(s.jobs, j)
	s.eventLocked(j, svclog.EvSubmitted, -1, 0, spec.Name)
	// An all-hit batch finishes here, with the events and counters its own
	// goroutine would have produced: a cache hit costs no goroutine. Telemetry
	// jobs still take one, which records their flight.
	var hitJSON [][]byte
	allHit := false
	if !j.telemetry {
		hitJSON, allHit = s.cache.PeekAll(keys, spec.Tenant)
	}
	if allHit {
		j.doneCh = closedDone
	} else {
		j.doneCh = make(chan struct{})
		s.queued++
	}
	s.m.submitted.With(spec.Tenant).Inc()
	s.eventLocked(j, svclog.EvQueued, -1, 0, "")
	if spec.Tenant != "" {
		s.opt.Log.Info("job_submitted", "job", j.id, "name", spec.Name, "tenant", spec.Tenant,
			"configs", len(spec.Configs), "priority", spec.Priority, "queue_depth", s.queued)
	} else {
		s.opt.Log.Info("job_submitted", "job", j.id, "name", spec.Name,
			"configs", len(spec.Configs), "priority", spec.Priority, "queue_depth", s.queued)
	}
	if allHit {
		s.startLocked(j)
		for i, js := range hitJSON {
			s.accountResolvedLocked(j, i, js, "hit", 0)
		}
		s.finishLocked(j, hitJSON, nil)
		return s.statusLocked(j), nil
	}
	// A job that will simulate here takes its place in the slot queue now,
	// so its priority counts against every later submission.
	var w *slotWaiter
	if s.cache.needsRun(keys, s.cluster) {
		w = s.requestSlotLocked(j)
	}
	s.wg.Add(1)
	go s.runJob(j, w)
	return s.statusLocked(j), nil
}

// retryAfter estimates when jobs queued or started clear slots at perSec
// each (1 s when no job has finished yet), floored at one second.
func retryAfter(perSec float64, jobs, slots int) time.Duration {
	if perSec <= 0 {
		perSec = 1
	}
	d := time.Duration(perSec * (float64(jobs) / float64(slots)) * float64(time.Second))
	return max(d, time.Second).Round(time.Second)
}

// ewma folds sample into the average avg (0: no sample yet).
func ewma(avg, sample float64) float64 {
	if avg == 0 {
		return sample
	}
	return 0.7*avg + 0.3*sample
}

// Job returns the job with the given id. Only the canonical form j-%06d of
// an admitted job's sequence number names it.
func (s *Server) Job(id string) (*Job, bool) {
	n, err := strconv.ParseUint(strings.TrimPrefix(id, "j-"), 10, 64)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil || n == 0 || n > uint64(len(s.jobs)) || s.jobs[n-1].id != id {
		return nil, false
	}
	return s.jobs[n-1], true
}

// Status snapshots a job.
func (s *Server) Status(j *Job) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked(j)
}

func (s *Server) statusLocked(j *Job) JobStatus {
	st := JobStatus{
		ID:          j.id,
		Name:        j.spec.Name,
		State:       j.state,
		Priority:    j.spec.Priority,
		Total:       j.total,
		Done:        j.done,
		CacheHits:   j.cacheHits,
		Simulated:   j.simulated,
		Joins:       j.joins,
		Forwarded:   j.forwarded,
		Telemetry:   j.telemetry,
		Tenant:      j.spec.Tenant,
		SubmittedAt: j.submitted,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}

// Jobs lists every job in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, s.statusLocked(j))
	}
	return out
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.doneCh }

// Results returns the canonical JSON encodings of the job's results (input
// order), or false if the job is not done. The byte slices are the exact
// bytes a cache hit serves, so equality checks against a direct run are
// byte-for-byte.
func (s *Server) Results(j *Job) ([][]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state != JobDone {
		return nil, false
	}
	return j.resultJSON, true
}

// Metrics renders a done job's metrics registry, nil unless JobSpec.Metrics
// or telemetry: machine.CollectMetrics folded over the job's result bytes,
// in config order. The registry is a view of the results made when asked,
// so the job keeps none and no decode runs under the server mutex.
func (s *Server) Metrics(j *Job) (*obs.Registry, error) {
	s.mu.Lock()
	results := j.resultJSON
	want := j.state == JobDone && (j.spec.Metrics || j.telemetry)
	s.mu.Unlock()
	if !want {
		return nil, nil
	}
	reg := obs.NewRegistry()
	for _, js := range results {
		var r machine.Result
		if err := json.Unmarshal(js, &r); err != nil {
			return nil, fmt.Errorf("serve: decode result for metrics: %w", err)
		}
		machine.CollectMetrics(reg, &r)
	}
	return reg, nil
}

// Spans returns the job's span recorder (nil unless JobSpec.Spans).
func (s *Server) Spans(j *Job) *obs.Spans {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state != JobDone {
		return nil
	}
	return j.spans
}

// ServerStats is the service-wide counters snapshot.
type ServerStats struct {
	QueueLimit int `json:"queue_limit"`
	// Queued counts admitted jobs not yet started (DESIGN.md §10).
	Queued int `json:"queued"`
	// Running counts jobs started and not finished; such a job may hold no
	// simulation slot (it may wait for one, a peer or a joined flight).
	Running  int  `json:"running"`
	Draining bool `json:"draining"`

	// SimSlots is the node's simulation budget; SimSlotsInUse the slots
	// held now and SimSlotsHighWater the most ever held at once, which never
	// exceeds SimSlots.
	SimSlots          int   `json:"sim_slots"`
	SimSlotsInUse     int64 `json:"sim_slots_in_use"`
	SimSlotsHighWater int64 `json:"sim_slots_high_water"`

	JobsSubmitted uint64 `json:"jobs_submitted"`
	JobsRejected  uint64 `json:"jobs_rejected"`
	JobsDone      uint64 `json:"jobs_done"`
	JobsFailed    uint64 `json:"jobs_failed"`
	JobsAborted   uint64 `json:"jobs_aborted"`

	// SimulatedRuns/SimulatedCycles count only real simulations — a cache
	// hit or singleflight join moves neither, which is how the smoke test
	// proves a resubmission never re-simulated.
	SimulatedRuns   uint64 `json:"simulated_runs"`
	SimulatedCycles uint64 `json:"simulated_cycles"`

	Cache CacheStats `json:"cache"`
	// Events is the lifecycle event log's traffic (zero when disabled).
	Events svclog.EventLogStats `json:"events"`
	// Artifacts is the flight-recorder store's state (zero when disabled).
	Artifacts ArtifactStats `json:"artifacts"`
	// Tenants is the per-tenant state (empty in anonymous mode).
	Tenants []TenantSnapshot `json:"tenants,omitempty"`
	// Cluster is the peer-layer state (absent outside cluster mode, which
	// keeps the single-node stats JSON byte-identical).
	Cluster *ClusterStats `json:"cluster,omitempty"`
}

// Stats snapshots the service counters: live state plus reads of the
// metrics registry, whose globals are sums over the tenant families.
func (s *Server) Stats() ServerStats {
	m := s.m
	s.mu.Lock()
	st := ServerStats{
		QueueLimit:        s.opt.QueueLimit,
		Queued:            s.queued,
		Running:           s.running,
		Draining:          s.draining,
		SimSlots:          s.opt.Slots,
		SimSlotsInUse:     int64(s.slots.inUse),
		SimSlotsHighWater: int64(s.slots.peak),
		JobsSubmitted:     m.submitted.Sum(),
		JobsRejected:      m.rejected.Sum(),
		JobsDone:          m.done.Sum(),
		JobsFailed:        m.failed.Sum(),
		JobsAborted:       m.aborted.Sum(),
		SimulatedRuns:     m.simRuns.Sum(),
		SimulatedCycles:   m.simCycles.Sum(),
	}
	if s.cluster != nil {
		st.Cluster = s.clusterStatsLocked()
	}
	s.mu.Unlock()
	st.Cache = s.cache.Stats()
	if s.opt.Events != nil {
		st.Events = s.opt.Events.Stats()
	}
	if s.artifacts != nil {
		st.Artifacts = s.artifacts.Stats()
	}
	st.Tenants = s.tenantSnapshots()
	return st
}

// tenantSnapshots is every tenant's declaration, live state and usage, in
// file order (nil in anonymous mode): Usage reads the registry, Total adds
// the restored ledger.
func (s *Server) tenantSnapshots() []TenantSnapshot {
	if s.opt.Tenants == nil {
		return nil
	}
	snaps := s.opt.Tenants.snapshot()
	for i := range snaps {
		snaps[i].Usage = s.m.usage(snaps[i].Name)
		snaps[i].Total.add(snaps[i].Usage)
	}
	return snaps
}

// tenantSnapshot is one tenant's snapshot, false when not registered.
func (s *Server) tenantSnapshot(name string) (TenantSnapshot, bool) {
	for _, t := range s.tenantSnapshots() {
		if t.Name == name {
			return t, true
		}
	}
	return TenantSnapshot{}, false
}

// startLocked moves an admitted job to running; s.mu must be held.
func (s *Server) startLocked(j *Job) {
	j.state = JobRunning
	j.started = time.Now()
	s.running++
	s.opt.Tenants.move(j.spec.Tenant, -1, +1)
	s.eventLocked(j, svclog.EvStarted, -1, 0, "")
}

// runJob runs one admitted job on its own goroutine, tracked by s.wg: queued
// until it holds w's slot (w nil: at once), it resolves every config against
// the cache, simulates the misses it owns (the first in that slot) while
// peer-owned configs resolve at their owners, then waits for flights other
// jobs own. A queued job owns no flight and a slot is never held across a
// wait, so waits form no cycle (DESIGN.md §10).
func (s *Server) runJob(j *Job, w *slotWaiter) {
	defer s.wg.Done()
	held := w != nil && <-w.grant
	s.mu.Lock()
	node, aborted := s.cluster, j.state == JobAborted
	if !aborted {
		s.queued--
		s.startLocked(j)
	}
	s.mu.Unlock()
	if held && (aborted || node != nil) {
		s.releaseSlot() // in cluster mode the replica lookups below hold no slot
		held = false
	}
	if aborted {
		return
	}

	keys := j.keys
	resJSON := make([][]byte, len(j.spec.Configs))
	var toRun []int
	type join struct {
		i  int
		fl *flight
	}
	var joins []join
	var remote []int

	tenant := j.spec.Tenant
	resolved := func(i int, js []byte, how string, cycles uint64) {
		resJSON[i] = js
		s.mu.Lock()
		s.accountResolvedLocked(j, i, js, how, cycles)
		s.mu.Unlock()
	}

	for i, cs := range j.spec.Configs {
		if !owns(node, keys[i]) {
			// A replicated or previously forwarded copy serves locally;
			// otherwise the owner resolves it (never a local flight).
			if js, ok := s.cache.Peek(keys[i], tenant); ok {
				resolved(i, js, "hit", 0)
			} else {
				remote = append(remote, i)
			}
			continue
		}
		js, hit, fl, owner := s.cache.Acquire(keys[i], tenant)
		switch {
		case hit:
			resolved(i, js, "hit", 0)
		case owner:
			if node != nil {
				// Owned key, no cached copy: ask the replica set before
				// burning a simulation — a restarted owner recovers the
				// results its successors kept (exactly-once across
				// kill/restart, even through its own front door).
				if js, ok := s.recoverFromReplicas(keys[i], cs.canonical()); ok {
					resolved(i, js, "recovered", 0)
					continue
				}
			}
			toRun = append(toRun, i) // resolved via cache.Fulfill/Abort below
		default:
			joins = append(joins, join{i: i, fl: fl})
		}
	}
	if held && len(toRun) == 0 {
		s.releaseSlot()
		held = false
	}

	remoteErr := make(chan error, 1)
	go func() { remoteErr <- s.resolveRemote(j, remote, resolved) }()
	jobErr := s.simulate(j, toRun, held, resolved)
	if err := <-remoteErr; err != nil {
		jobErr = err
	}

	for _, jn := range joins {
		<-jn.fl.done
		if jn.fl.err == nil {
			resolved(jn.i, jn.fl.js, "join", 0)
		} else if jobErr == nil {
			jobErr = jn.fl.err
		}
	}

	if jobErr == nil && j.telemetry {
		// Persist the flight record before the job flips to done, so a
		// client that sees "done" can always fetch the artifacts.
		s.recordFlight(j)
	}
	s.mu.Lock()
	s.finishLocked(j, resJSON, jobErr)
	s.mu.Unlock()
}

// finishLocked moves a running job to done or failed: its result bytes,
// counters, terminal event and log line, the EWMA job time and the tenant's
// accounting, then doneCh. s.mu must be held.
func (s *Server) finishLocked(j *Job, resJSON [][]byte, jobErr error) {
	tenant := j.spec.Tenant
	j.finished = time.Now()
	s.running--
	if jobErr != nil {
		j.state = JobFailed
		j.err = jobErr
		s.m.failed.With(tenant).Inc()
		s.eventLocked(j, svclog.EvFailed, -1, 0, jobErr.Error())
		s.opt.Log.Error("job_failed", withTenant(tenant, "job", j.id, "name", j.spec.Name,
			"err", jobErr.Error(), "wall_us", j.finished.Sub(j.submitted).Microseconds())...)
	} else {
		j.state = JobDone
		j.resultJSON = resJSON
		s.m.done.With(tenant).Inc()
		s.eventLocked(j, svclog.EvDone, -1, 0, "")
		s.opt.Log.Info("job_done", withTenant(tenant, "job", j.id, "name", j.spec.Name,
			"cache_hits", j.cacheHits, "simulated", j.simulated, "joins", j.joins,
			"wall_us", j.finished.Sub(j.submitted).Microseconds())...)
	}
	// EWMA of job wall time feeds the retry-after estimates; a job finished
	// inside Submit took microseconds and feeds neither the server's nor its
	// tenant's.
	sec := -1.0
	if j.doneCh != closedDone {
		sec = j.finished.Sub(j.started).Seconds()
		s.ewmaJobSec = ewma(s.ewmaJobSec, sec)
	}
	s.opt.Tenants.finished(tenant, sec)
	if !j.telemetry { // a telemetry job's configs name its artifacts
		j.spec.Configs, j.keys = nil, nil
	}
	if j.doneCh != closedDone {
		close(j.doneCh)
	}
}

// withTenant appends the tenant to log args, when there is one.
func withTenant(tenant string, args ...any) []any {
	if tenant != "" {
		args = append(args, "tenant", tenant)
	}
	return args
}

// closedDone is the Done channel of every job that finishes inside Submit:
// one shared channel, closed from the start, instead of one per job.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// simulate runs the cache-missing configs this job owns, each in its own
// slot, publishing each result (resolving the singleflight flights) and
// handing it to resolved as it lands. held says the first run's slot is
// already held. A job asks for slots in config order, one at a time, so
// alone it fills every idle slot and beside another job it shares them by
// priority. With spans attached the runs go one at a time: a span recorder
// is a shared observer, exactly like the figure drivers' shared-trace mode.
func (s *Server) simulate(j *Job, toRun []int, held bool, resolved func(int, []byte, string, uint64)) error {
	errs := make([]error, len(toRun))
	// publish lands run n (config i), or keeps the run's error.
	publish := func(n, i int, prof *obs.Profile, r *machine.Result, err error) {
		js, err := s.publishRun(j.keys[i], j.spec.Configs[i].canonical(), j.spec.Tenant, r, err)
		if err != nil {
			errs[n] = err
			return
		}
		if prof != nil {
			// Fold this config's cycle attribution into the job's flight
			// record: additive snapshot merge plus folded flamegraph stacks
			// (concatenation is valid folded input).
			snap := obs.SnapshotProfile(prof)
			var fb bytes.Buffer
			prof.WriteFolded(&fb)
			s.mu.Lock()
			if j.profSnap == nil {
				j.profSnap = snap
			} else {
				j.profSnap.Merge(snap)
			}
			j.folded = append(j.folded, fb.Bytes()...)
			s.mu.Unlock()
		}
		resolved(i, js, "simulated", uint64(r.Breakdown.Exec))
	}
	var wg sync.WaitGroup
	for n, i := range toRun {
		cfg := j.spec.Configs[i].canonical().Config()
		cfg.Spans = j.spans
		// Telemetry jobs attach a fresh profiler per config; machine.Run
		// folds the run's attribution into it before returning, so by the
		// time the result is published the profile is complete.
		var prof *obs.Profile
		if j.telemetry {
			prof = obs.NewProfile()
			cfg.Profile = prof
		}
		if n > 0 || !held {
			s.acquireSlot(j)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.runInSlot(cfg, func(r *machine.Result, err error) { publish(n, i, prof, r, err) })
		}()
		if j.spans != nil {
			wg.Wait()
		}
	}
	wg.Wait()
	// The job's error is its lowest-indexed failure, whatever order the
	// runs finished in.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// publishRun lands one finished run of key: its canonical bytes go into the
// cache (resolving the key's flight) and out to its replicas, and the run
// counts against tenant. A failed run aborts the flight instead, so the jobs
// joined to it unblock with its error. cs must be canonical.
func (s *Server) publishRun(key uint64, cs ConfigSpec, tenant string, r *machine.Result, err error) ([]byte, error) {
	var js []byte
	if err == nil {
		js, err = canonicalResultJSON(r)
	}
	if err != nil {
		s.cache.Abort(key, err)
		return nil, err
	}
	s.cache.Fulfill(key, cs, js)
	s.replicateAsync(key, cs, js)
	s.m.simRuns.With(tenant).Inc()
	s.m.simCycles.With(tenant).Add(uint64(r.Breakdown.Exec))
	return js, nil
}

// errNoResult fails a run that returned neither a result nor an error.
var errNoResult = errors.New("serve: run produced no result")

// runInSlot is the one way into Options.Run: the caller holds a slot
// (acquireSlot), and runInSlot runs cfg, hands the outcome to done and only
// then frees the slot.
func (s *Server) runInSlot(cfg machine.Config, done func(*machine.Result, error)) {
	defer s.releaseSlot()
	r, err := s.opt.Run(cfg)
	if err == nil && r == nil {
		err = errNoResult
	}
	done(r, err)
}

// slotPool is the node's simulation budget and its only queue (DESIGN.md
// §10): the slots held and the waiters for one, in the order they are
// served. Guarded by the server mutex.
type slotPool struct {
	waiters     []*slotWaiter
	inUse, peak int
}

// slotWaiter is one request for a slot. A jobless one (a peer compute or a
// last-resort local run) has priority 0 and the last admitted job's seq.
type slotWaiter struct {
	job      *Job
	priority int
	seq      uint64
	grant    chan bool // buffered, sent once (so under s.mu): held, or false if aborted
}

// before reports whether w is served ahead of x: higher priority first,
// then the older job, then a job ahead of a jobless waiter with its seq.
// Equals are served in arrival order.
func (w *slotWaiter) before(x *slotWaiter) bool {
	if w.priority != x.priority {
		return w.priority > x.priority
	}
	if w.seq != x.seq {
		return w.seq < x.seq
	}
	return w.job != nil && x.job == nil
}

// requestSlotLocked queues a request for j (nil: jobless) and returns it,
// already granted when a slot is free. s.mu must be held.
func (s *Server) requestSlotLocked(j *Job) *slotWaiter {
	p := &s.slots
	w := &slotWaiter{job: j, seq: uint64(len(s.jobs)), grant: make(chan bool, 1)}
	if j != nil {
		w.priority, w.seq = j.spec.Priority, j.seq
	}
	if p.inUse == s.opt.Slots {
		i := sort.Search(len(p.waiters), func(k int) bool { return w.before(p.waiters[k]) })
		p.waiters = slices.Insert(p.waiters, i, w)
		return w
	}
	p.inUse++
	p.peak = max(p.peak, p.inUse)
	w.grant <- true
	return w
}

// acquireSlot blocks until the caller holds a slot: a started job asking for
// its next miss's, or (j nil) a jobless run.
func (s *Server) acquireSlot(j *Job) {
	s.mu.Lock()
	w := s.requestSlotLocked(j)
	s.mu.Unlock()
	<-w.grant
}

// releaseSlot frees a slot, handing it straight to the head waiter if any.
func (s *Server) releaseSlot() {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := &s.slots
	if len(p.waiters) == 0 {
		p.inUse--
		return
	}
	p.waiters[0].grant <- true
	p.waiters = slices.Delete(p.waiters, 0, 1)
}

// Shutdown drains the service: new submissions are rejected, jobs not yet
// started abort (leaving the slot queue; they own no flight), started jobs
// finish (bounded by ctx), and the cache index is persisted to
// Options.CachePath. Safe to call once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.opt.Log.Info("server_draining", "queued", s.queued, "running", s.running)
	s.slots.waiters = slices.DeleteFunc(s.slots.waiters, func(w *slotWaiter) bool {
		if w.job == nil || w.job.state != JobQueued {
			return false
		}
		w.grant <- false
		return true
	})
	for _, j := range s.jobs {
		if j.state != JobQueued {
			continue
		}
		s.queued--
		j.state = JobAborted
		j.err = ErrDraining
		j.finished = time.Now()
		s.m.aborted.With(j.spec.Tenant).Inc()
		s.opt.Tenants.move(j.spec.Tenant, -1, 0)
		s.eventLocked(j, svclog.EvAborted, -1, 0, ErrDraining.Error())
		close(j.doneCh)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var waitErr error
	select {
	case <-done:
	case <-ctx.Done():
		waitErr = ctx.Err()
	}
	s.stopCluster()
	if s.opt.CachePath != "" {
		if err := save(s.opt.CachePath, cacheIndexVersion, s.cache.Snapshot()); err != nil && waitErr == nil {
			waitErr = err
		}
	}
	if s.artifacts != nil {
		if err := s.artifacts.SaveIndex(); err != nil && waitErr == nil {
			waitErr = err
		}
	}
	if s.opt.Tenants != nil && s.opt.UsagePath != "" {
		if err := s.saveUsage(s.opt.UsagePath); err != nil && waitErr == nil {
			waitErr = err
		}
	}
	return waitErr
}
