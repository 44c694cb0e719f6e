package serve

import (
	"strconv"
	"time"

	"pimdsm/internal/obs"
	"pimdsm/internal/sim"
)

// metrics is the daemon's one counter store (DESIGN.md §11): every service
// counter lives in reg, and /metrics.prom, /api/v1/stats and the tenant
// usage views are renderings of it. Each event is counted once, on a family
// labelled by tenant; anonymous and peer traffic count on the "" series,
// which is never rendered as a tenant. The unlabelled global families are
// sums over those families, so "per-tenant sums to global" holds by
// construction whenever all traffic is authenticated.
type metrics struct {
	reg *obs.Registry

	// By tenant (rejected also by reason).
	requests, submitted, done, failed, aborted, rejected *obs.CounterVec
	hits, misses, joins, simRuns, simCycles              *obs.CounterVec
	resultBytes, artifactBytes                           *obs.CounterVec

	evictions, artPuts, artHits, artMisses, artEvictions *obs.Counter

	// Cluster routing and replication.
	forwardsSent, forwardsFailed, forwardsServed, lookupsServed, lookupsMissed *obs.Counter
	replicasSent, replicasFailed, replicasRecvd, recoveries, redirects         *obs.Counter

	httpRequests *obs.CounterVec   // route, code
	httpDuration *obs.HistogramVec // route; microseconds
}

// rejectReasons are the `reason` label values of the rejection family, in
// rendering order; reasonLabel maps each BusyError reason to one. Draining
// counts as "window".
var (
	rejectReasons = []string{"rate", "queue_quota", "concurrency_quota", "window"}
	reasonLabel   = map[string]string{RejectRate: "rate", RejectQueueQuota: "queue_quota",
		RejectActiveQuota: "concurrency_quota", RejectWindow: "window"}
)

// newMetrics declares every family in exposition order. The scrape-time
// families read a Stats snapshot of s, so a standalone cache or artifact
// store (s == nil) gets a registry that is counted into but never rendered.
func newMetrics(s *Server) *metrics {
	m := &metrics{reg: obs.NewRegistry()}
	r := m.reg
	tenanted := func() bool { return s.opt.Tenants != nil }
	clustered := func() bool { return s.clusterNode() != nil }
	stat := func(f func(ServerStats) float64) func([]string) float64 {
		return func([]string) float64 { return f(s.Stats()) }
	}
	gauge := func(name, help string, f func(ServerStats) float64) {
		r.GaugeFunc(name, obs.Opts{Help: help}, stat(f))
	}
	counter := func(name, help string, show func() bool) *obs.Counter {
		return r.CounterVec(name, obs.Opts{Help: help, Show: show}).With()
	}
	// sum renders a global as the sum over a tenant family declared further
	// down (hence the pointer to the field).
	sum := func(name, help string, v **obs.CounterVec) {
		r.CounterFunc(name, obs.Opts{Help: help}, func([]string) float64 { return float64((*v).Sum()) })
	}

	sum("aggsimd_jobs_submitted_total", "Jobs admitted past the admission window.", &m.submitted)
	sum("aggsimd_jobs_rejected_total", "Submissions rejected (window full or draining).", &m.rejected)
	sum("aggsimd_jobs_done_total", "Jobs finished successfully.", &m.done)
	sum("aggsimd_jobs_failed_total", "Jobs finished with an error.", &m.failed)
	sum("aggsimd_jobs_aborted_total", "Queued jobs aborted by shutdown.", &m.aborted)
	sum("aggsimd_simulated_runs_total", "Real simulations executed (cache hits and joins excluded).", &m.simRuns)
	sum("aggsimd_simulated_cycles_total", "Engine cycles across all real simulations.", &m.simCycles)

	gauge("aggsimd_queue_depth", "Jobs waiting to run.", func(st ServerStats) float64 { return float64(st.Queued) })
	gauge("aggsimd_queue_limit", "Admission window size.", func(st ServerStats) float64 { return float64(st.QueueLimit) })
	gauge("aggsimd_jobs_running", "Jobs started and not yet finished (a running job may hold no simulation slot).", func(st ServerStats) float64 { return float64(st.Running) })
	gauge("aggsimd_sim_slots", "Simulation budget: the most simulations this node runs at once.",
		func(st ServerStats) float64 { return float64(st.SimSlots) })
	gauge("aggsimd_sim_slots_in_use", "Simulation slots held now (job misses, peer computes, local fallbacks).",
		func(st ServerStats) float64 { return float64(st.SimSlotsInUse) })
	gauge("aggsimd_sim_slots_high_water", "Most simulation slots ever held at once.",
		func(st ServerStats) float64 { return float64(st.SimSlotsHighWater) })
	gauge("aggsimd_draining", "1 while the server is shutting down.", func(st ServerStats) float64 {
		if st.Draining {
			return 1
		}
		return 0
	})

	gauge("aggsimd_cache_entries", "Result cache entries resident.", func(st ServerStats) float64 { return float64(st.Cache.Entries) })
	gauge("aggsimd_cache_limit", "Result cache LRU bound.", func(st ServerStats) float64 { return float64(st.Cache.Limit) })
	gauge("aggsimd_cache_inflight", "Simulations currently in flight (singleflight).",
		func(st ServerStats) float64 { return float64(st.Cache.InFlight) })
	sum("aggsimd_cache_hits_total", "Result cache hits.", &m.hits)
	sum("aggsimd_cache_misses_total", "Result cache misses.", &m.misses)
	sum("aggsimd_cache_joins_total", "Singleflight joins on in-flight simulations.", &m.joins)
	m.evictions = counter("aggsimd_cache_evictions_total", "Result cache LRU evictions.", nil)

	gauge("aggsimd_artifacts_resident", "Flight-recorder artifacts resident in the store.",
		func(st ServerStats) float64 { return float64(st.Artifacts.Count) })
	gauge("aggsimd_artifacts_bytes", "Flight-recorder store bytes resident.",
		func(st ServerStats) float64 { return float64(st.Artifacts.Bytes) })
	gauge("aggsimd_artifacts_bytes_limit", "Flight-recorder store byte bound.",
		func(st ServerStats) float64 { return float64(st.Artifacts.Limit) })
	m.artPuts = counter("aggsimd_artifacts_puts_total", "Flight-recorder artifacts written.", nil)
	m.artHits = counter("aggsimd_artifacts_hits_total", "Flight-recorder artifact fetches served.", nil)
	m.artMisses = counter("aggsimd_artifacts_misses_total", "Flight-recorder artifact fetches missed (evicted or never recorded).", nil)
	m.artEvictions = counter("aggsimd_artifacts_evictions_total", "Flight-recorder artifacts evicted by the byte bound.", nil)

	r.CounterFunc("aggsimd_events_appended_total", obs.Opts{Help: "Lifecycle events recorded."},
		stat(func(st ServerStats) float64 { return float64(st.Events.Appended) }))
	r.CounterFunc("aggsimd_events_dropped_total", obs.Opts{Help: "Lifecycle events dropped on slow subscribers."},
		stat(func(st ServerStats) float64 { return float64(st.Events.Dropped) }))
	gauge("aggsimd_event_subscribers", "Live SSE/event subscribers.",
		func(st ServerStats) float64 { return float64(st.Events.Subscribers) })

	// Tenant families render one row per tenant in the tenants file (the
	// only source of `tenant` values), and only with a registry configured,
	// so the anonymous exposition carries none of them.
	tenantRows := func() [][]string {
		var rows [][]string
		for _, name := range s.opt.Tenants.Names() {
			rows = append(rows, []string{name})
		}
		return rows
	}
	byTenant := func(name, help string) *obs.CounterVec {
		return r.CounterVec(name, obs.Opts{Help: help, Labels: []string{"tenant"}, Rows: tenantRows, Show: tenanted})
	}
	m.requests = byTenant("aggsimd_tenant_http_requests_total", "Authenticated API requests by tenant.")
	m.submitted = byTenant("aggsimd_tenant_jobs_submitted_total", "Jobs admitted by tenant.")
	m.done = byTenant("aggsimd_tenant_jobs_done_total", "Jobs finished successfully by tenant.")
	m.failed = byTenant("aggsimd_tenant_jobs_failed_total", "Jobs finished with an error by tenant.")
	m.aborted = byTenant("aggsimd_tenant_jobs_aborted_total", "Queued jobs aborted by shutdown, by tenant.")
	m.rejected = r.CounterVec("aggsimd_tenant_rejected_total", obs.Opts{
		Help:   "Submissions rejected by tenant and gate.",
		Labels: []string{"tenant", "reason"},
		Rows: func() [][]string {
			var rows [][]string
			for _, t := range tenantRows() {
				for _, reason := range rejectReasons {
					rows = append(rows, []string{t[0], reason})
				}
			}
			return rows
		},
		Show: tenanted,
	})
	m.hits = byTenant("aggsimd_tenant_cache_hits_total", "Result cache hits by tenant.")
	m.misses = byTenant("aggsimd_tenant_cache_misses_total", "Result cache misses by tenant.")
	m.joins = byTenant("aggsimd_tenant_cache_joins_total", "Singleflight joins by tenant.")
	m.simRuns = byTenant("aggsimd_tenant_simulated_runs_total", "Real simulations executed by tenant.")
	m.simCycles = byTenant("aggsimd_tenant_simulated_cycles_total", "Engine cycles consumed by tenant.")
	m.resultBytes = byTenant("aggsimd_tenant_result_bytes_total", "Canonical result bytes delivered by tenant.")
	m.artifactBytes = byTenant("aggsimd_tenant_artifact_bytes_total", "Flight-recorder artifact bytes written by tenant.")
	live := obs.Opts{Labels: []string{"tenant"}, Rows: tenantRows, Show: tenanted}
	live.Help = "Jobs waiting to run by tenant."
	r.GaugeFunc("aggsimd_tenant_queued", live, func(row []string) float64 {
		queued, _ := s.opt.Tenants.live(row[0])
		return float64(queued)
	})
	live.Help = "Jobs started and not yet finished, by tenant."
	r.GaugeFunc("aggsimd_tenant_running", live, func(row []string) float64 {
		_, running := s.opt.Tenants.live(row[0])
		return float64(running)
	})

	// Cluster families, only with a node attached. The membership figures
	// are the node's own (internal/cluster).
	for _, cf := range []struct {
		name, help string
		counter    bool
		v          func(st *ClusterStats) uint64
	}{
		{"aggsimd_cluster_members_alive", "Cluster members alive (including self).", false,
			func(st *ClusterStats) uint64 { return uint64(st.Node.Alive) }},
		{"aggsimd_cluster_members_suspect", "Cluster members suspected (silent but still in the ring).", false,
			func(st *ClusterStats) uint64 { return uint64(st.Node.Suspect) }},
		{"aggsimd_cluster_members_dead", "Cluster members declared dead (out of the ring).", false,
			func(st *ClusterStats) uint64 { return uint64(st.Node.Dead) }},
		{"aggsimd_cluster_ring_members", "Members currently owning ring partitions.", false,
			func(st *ClusterStats) uint64 { return uint64(st.Node.RingMembers) }},
		{"aggsimd_cluster_ring_version", "Ring rebuild count (bumps on every membership change).", false,
			func(st *ClusterStats) uint64 { return st.Node.RingVersion }},
		{"aggsimd_cluster_incarnation", "This node's gossip incarnation.", false,
			func(st *ClusterStats) uint64 { return st.Node.Incarnation }},
		{"aggsimd_cluster_heartbeats_sent_total", "Gossip heartbeats delivered to peers.", true,
			func(st *ClusterStats) uint64 { return st.Node.HeartbeatsSent }},
		{"aggsimd_cluster_heartbeats_received_total", "Gossip heartbeats received from peers.", true,
			func(st *ClusterStats) uint64 { return st.Node.HeartbeatsReceived }},
		{"aggsimd_cluster_heartbeat_failures_total", "Gossip heartbeats that failed to deliver.", true,
			func(st *ClusterStats) uint64 { return st.Node.HeartbeatFailures }},
		{"aggsimd_cluster_refutations_total", "Death rumors about this node it refuted.", true,
			func(st *ClusterStats) uint64 { return st.Node.Refutations }},
	} {
		o, v := obs.Opts{Help: cf.help, Show: clustered}, cf.v
		read := stat(func(st ServerStats) float64 { return float64(v(st.Cluster)) })
		if cf.counter {
			r.CounterFunc(cf.name, o, read)
		} else {
			r.GaugeFunc(cf.name, o, read)
		}
	}
	m.forwardsSent = counter("aggsimd_cluster_forwards_sent_total", "Configs resolved through an owning peer.", clustered)
	m.forwardsFailed = counter("aggsimd_cluster_forwards_failed_total", "Forwarded resolutions that failed over to the next target.", clustered)
	m.forwardsServed = counter("aggsimd_cluster_forwards_served_total", "Forwarded computes served as owner.", clustered)
	m.lookupsServed = counter("aggsimd_cluster_lookups_served_total", "Replica-cache lookups served to peers.", clustered)
	m.lookupsMissed = counter("aggsimd_cluster_lookups_missed_total", "Replica-cache lookups that missed.", clustered)
	m.replicasSent = counter("aggsimd_cluster_replicas_sent_total", "Result copies pushed to ring successors.", clustered)
	m.replicasFailed = counter("aggsimd_cluster_replicas_failed_total", "Result copies that failed to push.", clustered)
	m.replicasRecvd = counter("aggsimd_cluster_replicas_received_total", "Result copies received from peers.", clustered)
	m.recoveries = counter("aggsimd_cluster_recoveries_total", "Simulations avoided by pulling a replica instead.", clustered)
	m.redirects = counter("aggsimd_cluster_redirects_total", "Submissions redirected to the owning peer (421).", clustered)

	// Per-route request families: routes are the mux's patterns and codes
	// the handlers' statuses, so both label sets are bounded by this code.
	m.httpRequests = r.CounterVec("aggsimd_http_requests_total", obs.Opts{
		Help: "HTTP requests by route and status code.", Labels: []string{"route", "code"},
	})
	m.httpDuration = r.HistogramVec("aggsimd_http_request_duration_us", obs.LatBounds(), obs.Opts{
		Help: "Request latency in microseconds (power-of-two buckets).", Labels: []string{"route"},
	})
	return m
}

// statusLabels spells each HTTP status code once, so counting a request
// formats nothing.
var statusLabels = func() (l [600]string) {
	for i := range l {
		l[i] = strconv.Itoa(i)
	}
	return l
}()

// observeHTTP is the request middleware's hook: one count by route and
// status, one latency observation by route.
func (m *metrics) observeHTTP(route string, status int, d time.Duration) {
	var code string
	if status >= 0 && status < len(statusLabels) {
		code = statusLabels[status]
	} else {
		code = strconv.Itoa(status)
	}
	m.httpRequests.With(route, code).Inc()
	m.httpDuration.With(route).Observe(sim.Time(d.Microseconds()))
}

// usage reads one tenant's process-lifetime counters out of the registry,
// in TenantUsage.counters order.
func (m *metrics) usage(tenant string) (u TenantUsage) {
	series := []*obs.Counter{m.requests.With(tenant),
		m.submitted.With(tenant), m.done.With(tenant), m.failed.With(tenant), m.aborted.With(tenant),
		m.rejected.With(tenant, "rate"), m.rejected.With(tenant, "queue_quota"),
		m.rejected.With(tenant, "concurrency_quota"), m.rejected.With(tenant, "window"),
		m.hits.With(tenant), m.misses.With(tenant), m.joins.With(tenant),
		m.simRuns.With(tenant), m.simCycles.With(tenant), m.resultBytes.With(tenant), m.artifactBytes.With(tenant)}
	for i, p := range u.counters() {
		*p = series[i].Value()
	}
	return u
}
