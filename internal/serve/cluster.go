package serve

// Cluster glue (DESIGN.md §15): this file builds the distributed service on
// top of internal/cluster's membership and ring. Three mechanisms, all
// byte-transparent to results:
//
//   - Compute-at-owner forwarding: a front door resolves configs whose keys
//     it does not own through the owning peer's /cluster/compute endpoint.
//     The owner's cache + singleflight act as the cluster-wide lock service,
//     so a key is simulated exactly once no matter how many doors it enters.
//   - Replication: a completed simulation is pushed to the key's R ring
//     successors, so any of R+1 nodes answers repeat queries after the owner
//     dies; a restarted owner checks its successors (replica recovery) before
//     burning a fresh simulation.
//   - Work stealing: an idle node polls a random alive peer for its worst
//     queued job, executes it (through the same owner-routing), and posts the
//     results back; the victim requeues the job if the thief goes silent.
//
// The peer endpoints sit outside tenant authentication; their admission check
// is the shared cluster name carried in the X-Aggsimd-Cluster header (and,
// for payload-bearing endpoints, the key-derivation check that also guards
// the persisted cache index). Without an attached node every cluster route is
// an inert 404 and no stats field or metric family below is rendered — the
// single-node daemon stays byte-identical.

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"pimdsm/internal/cluster"
	"pimdsm/internal/machine"
	"pimdsm/internal/obs/svclog"
)

// Peer-protocol headers. clusterHeader names the cluster on every
// peer-to-peer request; forwardedHeader marks a submission that already
// followed one ownership redirect, so a front door never bounces a client a
// second time (no redirect loops).
const (
	clusterHeader   = "X-Aggsimd-Cluster"
	forwardedHeader = "X-Aggsimd-Forwarded"
)

// stealRequeueAfter is how long a stolen job may stay out before the victim
// assumes the thief died and requeues it locally. Generous on purpose: a
// premature requeue risks the same configs running twice (same bytes, wasted
// cycles), while a late one only delays a job whose thief crashed.
const stealRequeueAfter = 60 * time.Second

// clusterLoopEvery paces the background cluster loop (steal attempts and
// stolen-job requeue sweeps).
const clusterLoopEvery = 100 * time.Millisecond

// stolenRecord tracks one job a peer is executing for us.
type stolenRecord struct {
	job      *Job
	thief    string
	deadline time.Time
}

// ClusterStats is the peer-layer section of ServerStats: the membership
// node's own snapshot plus the serve-level routing counters.
type ClusterStats struct {
	Node     cluster.Stats `json:"node"`
	Replicas int           `json:"replicas"`

	// Forwards: configs this front door resolved through an owning peer
	// (sent/failed), and forwarded computes this node served as owner.
	ForwardsSent   uint64 `json:"forwards_sent"`
	ForwardsFailed uint64 `json:"forwards_failed"`
	ForwardsServed uint64 `json:"forwards_served"`

	// Lookups: replica-cache probes served to recovering owners.
	LookupsServed uint64 `json:"lookups_served"`
	LookupsMissed uint64 `json:"lookups_missed"`

	// Replication: copies pushed to successors and copies received. Summed
	// across the cluster, sent == received once replication has settled.
	ReplicasSent     uint64 `json:"replicas_sent"`
	ReplicasFailed   uint64 `json:"replicas_failed"`
	ReplicasReceived uint64 `json:"replicas_received"`
	// Recoveries counts simulations this node avoided by pulling the result
	// from a replica instead (the exactly-once-across-restart mechanism).
	Recoveries uint64 `json:"recoveries"`

	// Work stealing, from both sides of the exchange.
	StealsGiven     uint64 `json:"steals_given"`
	StealsTaken     uint64 `json:"steals_taken"`
	StealsCompleted uint64 `json:"steals_completed"`
	StealsFailed    uint64 `json:"steals_failed"`
	StealsRequeued  uint64 `json:"steals_requeued"`
	StolenInFlight  int    `json:"stolen_in_flight"`

	// Redirects counts 421 Misdirected Request responses steering clients to
	// the owning peer.
	Redirects uint64 `json:"redirects"`
}

// clusterStatsLocked snapshots the cluster section from the node and the
// metrics registry; s.mu must be held. The node has its own mutex ordered
// strictly after s.mu (the node never calls back into the server).
func (s *Server) clusterStatsLocked() *ClusterStats {
	m := s.m
	return &ClusterStats{
		Node:             s.cluster.Stats(),
		Replicas:         s.cluster.Replicas(),
		ForwardsSent:     m.forwardsSent.Value(),
		ForwardsFailed:   m.forwardsFailed.Value(),
		ForwardsServed:   m.forwardsServed.Value(),
		LookupsServed:    m.lookupsServed.Value(),
		LookupsMissed:    m.lookupsMissed.Value(),
		ReplicasSent:     m.replicasSent.Value(),
		ReplicasFailed:   m.replicasFailed.Value(),
		ReplicasReceived: m.replicasRecvd.Value(),
		Recoveries:       m.recoveries.Value(),
		StealsGiven:      m.stealsGiven.Value(),
		StealsTaken:      m.stealsTaken.Value(),
		StealsCompleted:  m.stealsCompleted.Value(),
		StealsFailed:     m.stealsFailed.Value(),
		StealsRequeued:   m.stealsRequeued.Value(),
		StolenInFlight:   len(s.stolen),
		Redirects:        m.redirects.Value(),
	}
}

// AttachCluster joins the server to a cluster: the node's heartbeat loop
// starts and the background steal/requeue loop launches. Call once, before
// serving traffic; attaching after Shutdown began is a no-op.
func (s *Server) AttachCluster(node *cluster.Node) {
	s.mu.Lock()
	if s.cluster != nil || s.draining {
		s.mu.Unlock()
		return
	}
	s.cluster = node
	s.stolen = make(map[string]*stolenRecord)
	s.clusterStop = make(chan struct{})
	// Forwarded computes may simulate inline at the owner; the peer client
	// timeout must cover a full run, not just a cache probe.
	s.clusterHTTP = &http.Client{Timeout: 2 * time.Minute}
	s.mu.Unlock()
	s.opt.Log.Info("cluster_attached", "cluster", node.Name(), "self", node.Self(),
		"replicas", node.Replicas())
	node.Start()
	s.clusterWG.Add(1)
	go s.clusterLoop()
}

// clusterNode returns the attached node (nil outside cluster mode).
func (s *Server) clusterNode() *cluster.Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cluster
}

// stopCluster tears the peer layer down: the steal loop and heartbeats stop,
// in-flight replications drain, and jobs still held by thieves are aborted
// (their results, if any, were computed against the shared cache and are not
// lost — only this job's delivery is). Idempotent; called from Shutdown.
func (s *Server) stopCluster() {
	s.mu.Lock()
	node := s.cluster
	if node == nil || s.clusterClosed {
		s.mu.Unlock()
		return
	}
	s.clusterClosed = true
	s.mu.Unlock()
	close(s.clusterStop)
	node.Stop()
	s.clusterWG.Wait()
	s.mu.Lock()
	for id, rec := range s.stolen {
		delete(s.stolen, id)
		j := rec.job
		j.state = JobAborted
		j.err = ErrDraining
		j.finished = time.Now()
		s.m.aborted.With(j.spec.Tenant).Inc()
		s.opt.Tenants.move(j.spec.Tenant, 0, -1)
		s.eventLocked(j, svclog.EvAborted, -1, 0, "shutdown while stolen by "+rec.thief)
		close(j.doneCh)
	}
	s.mu.Unlock()
}

// clusterLoop is the node's background cluster duty cycle: requeue stolen
// jobs whose thieves went silent, then steal from a peer if we are idle.
func (s *Server) clusterLoop() {
	defer s.clusterWG.Done()
	t := time.NewTicker(clusterLoopEvery)
	defer t.Stop()
	for {
		select {
		case <-s.clusterStop:
			return
		case <-t.C:
			s.requeueStolen(time.Now())
			s.trySteal()
		}
	}
}

// ---------------------------------------------------------------------------
// Peer HTTP plumbing

// peerDo performs one cluster-internal exchange. The cluster-name header is
// the peer endpoints' admission check (they sit outside tenant auth).
func (s *Server) peerDo(method, peer, path string, body []byte) (int, []byte, error) {
	node := s.clusterNode()
	if node == nil {
		return 0, nil, errors.New("serve: not clustered")
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, "http://"+peer+path, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set(clusterHeader, node.Name())
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.clusterHTTP.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, data, nil
}

// clip bounds an error payload for embedding in an error string.
func clip(b []byte) string {
	const max = 200
	if len(b) > max {
		b = b[:max]
	}
	return string(bytes.TrimSpace(b))
}

// ---------------------------------------------------------------------------
// Resolution: local (owner) and routed (front door)

// resolveLocal resolves one key on this node: cache hit, singleflight join,
// replica recovery, or a real simulation (which then replicates to the key's
// successors). how is "hit", "join", "recovered" or "simulated". This is the
// owner half of compute-at-owner routing — it never forwards. The cache
// outcome and any simulation count against tenant ("" for peer traffic).
func (s *Server) resolveLocal(key, seed uint64, cs ConfigSpec, tenant string) (*machine.Result, []byte, string, error) {
	res, js, hit, fl, owner := s.cache.Acquire(key, tenant)
	if hit {
		return res, js, "hit", nil
	}
	if !owner {
		<-fl.done
		if fl.err != nil {
			return nil, nil, "", fl.err
		}
		return fl.res, fl.js, "join", nil
	}
	// We hold the flight. Before burning a simulation, ask the key's replica
	// set — a restarted owner finds the copy its successors kept, which is
	// what preserves exactly-once across a kill/restart.
	if rres, rjs, ok := s.recoverFromReplicas(key); ok {
		s.cache.Fulfill(key, seed, cs.canonical(), rres, rjs)
		return rres, rjs, "recovered", nil
	}
	cfg := cs.canonical().Config()
	rs, err := s.opt.Run([]machine.Config{cfg}, nil)
	if err == nil && (len(rs) == 0 || rs[0] == nil) {
		err = errors.New("serve: run produced no result")
	}
	if err != nil {
		s.cache.Abort(key, err)
		return nil, nil, "", err
	}
	sjs, err := canonicalResultJSON(rs[0])
	if err != nil {
		s.cache.Abort(key, err)
		return nil, nil, "", err
	}
	s.cache.Fulfill(key, seed, cs.canonical(), rs[0], sjs)
	s.m.simRuns.With(tenant).Inc()
	s.m.simCycles.With(tenant).Add(uint64(rs[0].Breakdown.Exec))
	s.replicateAsync(key, seed, cs.canonical(), sjs)
	return rs[0], sjs, "simulated", nil
}

// resolveAny resolves one key from anywhere in the cluster: local cache
// first, then the owner, then the owner's replica set, and — when every peer
// is unreachable — locally as a last resort (membership timeouts will
// reshuffle the ring shortly; result bytes are identical wherever computed).
// how adds "forward" to resolveLocal's vocabulary.
func (s *Server) resolveAny(key, seed uint64, cs ConfigSpec, tenant string) (*machine.Result, []byte, string, error) {
	if res, js, ok := s.cache.Peek(key, tenant); ok {
		return res, js, "hit", nil
	}
	node := s.clusterNode()
	if node == nil {
		return s.resolveLocal(key, seed, cs, tenant)
	}
	owner, self := node.Owner(key)
	if self {
		return s.resolveLocal(key, seed, cs, tenant)
	}
	targets := append([]string{owner}, node.Successors(key, node.Replicas())...)
	var lastErr error
	for _, peer := range targets {
		if peer == node.Self() {
			// The ring moved under us; we are in the key's replica set.
			return s.resolveLocal(key, seed, cs, tenant)
		}
		s.m.forwardsSent.Inc()
		res, js, err := s.forwardCompute(peer, key, seed, cs)
		if err != nil {
			lastErr = err
			s.m.forwardsFailed.Inc()
			continue
		}
		// Keep a copy: the front door converges toward the hot set its own
		// clients ask for, so repeat queries stay local (LRU-bounded).
		s.cache.Fulfill(key, seed, cs.canonical(), res, js)
		return res, js, "forward", nil
	}
	res, js, how, err := s.resolveLocal(key, seed, cs, tenant)
	if err != nil && lastErr != nil {
		return nil, nil, "", fmt.Errorf("%w (after forward failure: %v)", err, lastErr)
	}
	return res, js, how, err
}

// clusterComputeRequest is the /cluster/compute wire format. Key is the
// sender's derivation in hex; the receiver re-derives and rejects a mismatch
// (version-skewed peers must fail loudly, not cache under colliding keys).
type clusterComputeRequest struct {
	Spec ConfigSpec `json:"spec"`
	Seed uint64     `json:"seed,omitempty"`
	Key  string     `json:"key"`
}

// forwardCompute asks peer to resolve one config. The reply is the peer's
// canonical result JSON; it is re-canonicalized on ingest all the same, so a
// peer's bytes are never served unchecked.
func (s *Server) forwardCompute(peer string, key, seed uint64, cs ConfigSpec) (*machine.Result, []byte, error) {
	body, err := json.Marshal(clusterComputeRequest{
		Spec: cs, Seed: seed, Key: fmt.Sprintf("%016x", key),
	})
	if err != nil {
		return nil, nil, err
	}
	code, data, err := s.peerDo("POST", peer, "/api/v1/cluster/compute", body)
	if err != nil {
		return nil, nil, err
	}
	if code != http.StatusOK {
		return nil, nil, fmt.Errorf("serve: peer %s compute: HTTP %d: %s", peer, code, clip(data))
	}
	res, js, err := ingestResult(data)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: peer %s compute: %w", peer, err)
	}
	return res, js, nil
}

// recoverFromReplicas probes the key's successor set for a replicated copy.
func (s *Server) recoverFromReplicas(key uint64) (*machine.Result, []byte, bool) {
	node := s.clusterNode()
	if node == nil {
		return nil, nil, false
	}
	for _, peer := range node.Successors(key, node.Replicas()) {
		if peer == node.Self() {
			continue
		}
		code, data, err := s.peerDo("GET", peer,
			fmt.Sprintf("/api/v1/cluster/lookup?key=%016x", key), nil)
		if err != nil || code != http.StatusOK {
			continue
		}
		res, js, err := ingestResult(data)
		if err != nil {
			continue
		}
		s.m.recoveries.Inc()
		return res, js, true
	}
	return nil, nil, false
}

// replicateAsync pushes a completed result to the key's owner (when this node
// is not it) and successors, in the persisted-index wire shape so receivers
// run the same verify-before-trust key check as a cache-file load. Fire and
// forget: replication is an availability optimization, never correctness —
// a missed replica only costs a recovery miss later.
func (s *Server) replicateAsync(key, seed uint64, cs ConfigSpec, js []byte) {
	s.mu.Lock()
	node := s.cluster
	if node == nil || s.clusterClosed {
		s.mu.Unlock()
		return
	}
	s.clusterWG.Add(1)
	s.mu.Unlock()
	targets := make(map[string]bool)
	if owner, self := node.Owner(key); !self {
		targets[owner] = true
	}
	for _, p := range node.Successors(key, node.Replicas()) {
		if p != node.Self() {
			targets[p] = true
		}
	}
	body, err := json.Marshal(indexEntry{
		Key: fmt.Sprintf("%016x", key), Seed: seed, Spec: cs, Result: json.RawMessage(js),
	})
	if len(targets) == 0 || err != nil {
		s.clusterWG.Done()
		return
	}
	go func() {
		defer s.clusterWG.Done()
		for peer := range targets {
			code, _, err := s.peerDo("POST", peer, "/api/v1/cluster/replicate", body)
			if err != nil || code/100 != 2 {
				s.m.replicasFailed.Inc()
				continue
			}
			s.m.replicasSent.Inc()
		}
	}()
}

// resolveRemote resolves a job's peer-owned configs (bounded fan-out) and
// folds each outcome into the job's counters and events.
func (s *Server) resolveRemote(j *Job, keys []uint64, remote []int, results []*machine.Result, resJSON [][]byte) error {
	var (
		rmu      sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	sem := make(chan struct{}, 4)
	for _, i := range remote {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			res, js, how, err := s.resolveAny(keys[i], j.spec.Seed, j.spec.Configs[i], j.spec.Tenant)
			rmu.Lock()
			defer rmu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			results[i], resJSON[i] = res, js
			s.accountResolved(j, i, res, js, how)
		}(i)
	}
	wg.Wait()
	return firstErr
}

// accountResolved attributes one cluster-resolved config to the job using
// only the pre-cluster lifecycle event kinds, so every chain still satisfies
// ValidateEventChain: peer-resolved configs surface as cache_hit events with
// a "cluster:…" detail (from this node's perspective, the cluster's
// replicated cache answered). The cache outcome and any simulation were
// counted where they happened (resolveAny/resolveLocal).
func (s *Server) accountResolved(j *Job, i int, res *machine.Result, js []byte, how string) {
	s.mu.Lock()
	j.done++
	switch how {
	case "hit":
		j.cacheHits++
		s.eventLocked(j, svclog.EvCacheHit, i, 0, "")
	case "join":
		j.joins++
		s.eventLocked(j, svclog.EvJoined, i, 0, "")
	case "simulated":
		j.simulated++
		s.eventLocked(j, svclog.EvSimulated, i, uint64(res.Breakdown.Exec), "")
		s.eventLocked(j, svclog.EvPersisted, i, 0, "")
	default: // "forward", "recovered"
		j.forwarded++
		s.eventLocked(j, svclog.EvCacheHit, i, 0, "cluster:"+how)
	}
	s.mu.Unlock()
	s.m.resultBytes.With(j.spec.Tenant).Add(uint64(len(js)))
}

// ---------------------------------------------------------------------------
// Ownership redirects (421)

// RedirectTarget decides whether a submission should bounce to a peer with
// 421 Misdirected Request: while draining, any alive peer keeps the cluster
// available through one node's restart; otherwise only when every config key
// has the same remote owner and none is cached here (a mixed-ownership batch
// is served better by this front door's fan-out). Submissions that already
// followed one redirect are never bounced again (the HTTP layer checks
// forwardedHeader before calling this).
func (s *Server) RedirectTarget(spec JobSpec) (peer, reason string, ok bool) {
	node := s.clusterNode()
	if node == nil {
		return "", "", false
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		peers := node.AlivePeers()
		if len(peers) == 0 {
			return "", "", false
		}
		s.m.redirects.Inc()
		return peers[rand.Intn(len(peers))], "draining", true
	}
	owner := ""
	for _, cs := range spec.Configs {
		key := cs.Key(spec.Seed)
		if s.cache.Contains(key) {
			return "", "", false
		}
		o, self := node.Owner(key)
		if self {
			return "", "", false
		}
		if owner == "" {
			owner = o
		} else if owner != o {
			return "", "", false
		}
	}
	if owner == "" {
		return "", "", false
	}
	s.m.redirects.Inc()
	return owner, "keys owned by peer", true
}

// ---------------------------------------------------------------------------
// Work stealing

// stealResponse hands one queued job to a thief.
type stealResponse struct {
	ID   string  `json:"id"`
	Spec JobSpec `json:"spec"`
}

// stolenReport returns a stolen job's outcome to its victim. Results carry
// each config's canonical JSON verbatim; Hows says how the thief resolved
// each one (hit/join/forward/recovered/simulated).
type stolenReport struct {
	ID      string            `json:"id"`
	Error   string            `json:"error,omitempty"`
	Hows    []string          `json:"hows,omitempty"`
	Results []json.RawMessage `json:"results,omitempty"`
}

// stealJob pops the worst queued job (lowest priority, newest) for a thief.
// Jobs carrying run-time observers (spans, telemetry) are pinned: their
// artifacts must be recorded where the simulations execute. The job flips to
// running attributed to the thief; it does not occupy a local worker slot.
func (s *Server) stealJob(thief string) (stealResponse, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || thief == "" || len(s.queue) == 0 {
		return stealResponse{}, false
	}
	worst := -1
	for i, j := range s.queue {
		if j.spans != nil || j.telemetry {
			continue
		}
		if worst == -1 ||
			j.spec.Priority < s.queue[worst].spec.Priority ||
			(j.spec.Priority == s.queue[worst].spec.Priority && j.seq > s.queue[worst].seq) {
			worst = i
		}
	}
	if worst == -1 {
		return stealResponse{}, false
	}
	j := heap.Remove(&s.queue, worst).(*Job)
	j.state = JobRunning
	j.started = time.Now()
	j.stolenBy = thief
	s.stolen[j.id] = &stolenRecord{job: j, thief: thief, deadline: time.Now().Add(stealRequeueAfter)}
	s.m.stealsGiven.Inc()
	s.opt.Tenants.move(j.spec.Tenant, -1, +1)
	s.eventLocked(j, svclog.EvStarted, -1, 0, "stolen by "+thief)
	s.opt.Log.Info("job_stolen", "job", j.id, "thief", thief, "queue_depth", len(s.queue))
	return stealResponse{ID: j.id, Spec: j.spec}, true
}

// takeStolen claims a stolen job for finalization; false when the job was
// already requeued (thief too slow) or is unknown.
func (s *Server) takeStolen(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.stolen[id]
	if !ok {
		return nil, false
	}
	delete(s.stolen, id)
	return rec.job, true
}

// completeStolen finalizes a job whose configs a thief resolved, mirroring
// runJob's tail: results install, metrics fold, events close the chain.
// Global simulation counters do NOT move here — they moved on the node that
// actually simulated, which is what makes the cluster-wide sum of
// simulated_runs the exactly-once proof.
func (s *Server) completeStolen(j *Job, rep stolenReport) {
	n := len(j.spec.Configs)
	results := make([]*machine.Result, n)
	resJSON := make([][]byte, n)
	var jobErr error
	switch {
	case rep.Error != "":
		jobErr = fmt.Errorf("serve: stolen by %s: %s", j.stolenBy, rep.Error)
	case len(rep.Results) != n || len(rep.Hows) != n:
		jobErr = fmt.Errorf("serve: thief %s returned %d results / %d hows for %d configs",
			j.stolenBy, len(rep.Results), len(rep.Hows), n)
	default:
		for i := range rep.Results {
			res, js, err := ingestResult(rep.Results[i])
			if err != nil {
				jobErr = fmt.Errorf("serve: stolen result %d: %w", i, err)
				break
			}
			results[i], resJSON[i] = res, js
		}
	}
	if jobErr == nil {
		for i := range results {
			s.cache.Fulfill(j.spec.Configs[i].Key(j.spec.Seed), j.spec.Seed,
				j.spec.Configs[i].canonical(), results[i], resJSON[i])
		}
		if j.metrics != nil {
			for _, r := range results {
				machine.CollectMetrics(j.metrics, r)
			}
		}
	}
	s.mu.Lock()
	j.finished = time.Now()
	if jobErr != nil {
		j.state = JobFailed
		j.err = jobErr
		s.m.failed.With(j.spec.Tenant).Inc()
		s.eventLocked(j, svclog.EvFailed, -1, 0, jobErr.Error())
		s.opt.Log.Error("job_failed", "job", j.id, "name", j.spec.Name, "thief", j.stolenBy,
			"err", jobErr.Error())
	} else {
		j.state = JobDone
		j.results = results
		j.resultJSON = resJSON
		j.done = n
		for i, how := range rep.Hows {
			switch how {
			case "simulated":
				j.simulated++
			case "join":
				j.joins++
			case "hit":
				j.cacheHits++
			default:
				j.forwarded++
			}
			s.eventLocked(j, svclog.EvCacheHit, i, 0, "stolen:"+how)
		}
		s.m.done.With(j.spec.Tenant).Inc()
		s.eventLocked(j, svclog.EvDone, -1, 0, "stolen by "+j.stolenBy)
		s.opt.Log.Info("job_done", "job", j.id, "name", j.spec.Name, "thief", j.stolenBy,
			"wall_us", j.finished.Sub(j.submitted).Microseconds())
	}
	sec := j.finished.Sub(j.started).Seconds()
	if s.ewmaJobSec == 0 {
		s.ewmaJobSec = sec
	} else {
		s.ewmaJobSec = 0.7*s.ewmaJobSec + 0.3*sec
	}
	s.mu.Unlock()
	s.opt.Tenants.finished(j.spec.Tenant, sec)
	if jobErr == nil {
		for _, js := range resJSON {
			s.m.resultBytes.With(j.spec.Tenant).Add(uint64(len(js)))
		}
	}
	close(j.doneCh)
}

// requeueStolen returns jobs whose thieves blew the deadline to the local
// queue. A late thief report for a requeued job gets 410 Gone.
func (s *Server) requeueStolen(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, rec := range s.stolen {
		if now.Before(rec.deadline) {
			continue
		}
		delete(s.stolen, id)
		j := rec.job
		j.state = JobQueued
		j.stolenBy = ""
		j.started = time.Time{}
		s.queue.push(j)
		s.m.stealsRequeued.Inc()
		s.opt.Tenants.move(j.spec.Tenant, +1, -1)
		s.eventLocked(j, svclog.EvQueued, -1, 0, "steal by "+rec.thief+" timed out; requeued")
		s.opt.Log.Warn("job_steal_requeued", "job", j.id, "thief", rec.thief)
		s.cond.Signal()
	}
}

// trySteal runs the thief side: when this node is fully idle, ask one random
// alive peer for work, resolve it through the normal owner routing, and post
// the results back.
func (s *Server) trySteal() {
	node := s.clusterNode()
	if node == nil {
		return
	}
	s.mu.Lock()
	idle := len(s.queue) == 0 && s.running == 0 && !s.draining
	s.mu.Unlock()
	if !idle {
		return
	}
	peers := node.AlivePeers()
	if len(peers) == 0 {
		return
	}
	victim := peers[rand.Intn(len(peers))]
	body, _ := json.Marshal(struct {
		Thief string `json:"thief"`
	}{Thief: node.Self()})
	code, data, err := s.peerDo("POST", victim, "/api/v1/cluster/steal", body)
	if err != nil || code != http.StatusOK {
		return // nothing to steal, or victim unreachable
	}
	var sj stealResponse
	if err := json.Unmarshal(data, &sj); err != nil {
		return
	}
	s.m.stealsTaken.Inc()
	s.opt.Log.Info("job_steal_taken", "victim", victim, "job", sj.ID,
		"configs", len(sj.Spec.Configs))
	rep := stolenReport{
		ID:      sj.ID,
		Hows:    make([]string, len(sj.Spec.Configs)),
		Results: make([]json.RawMessage, len(sj.Spec.Configs)),
	}
	for i, cs := range sj.Spec.Configs {
		_, js, how, err := s.resolveAny(cs.Key(sj.Spec.Seed), sj.Spec.Seed, cs, "")
		if err != nil {
			rep.Error = err.Error()
			rep.Hows, rep.Results = nil, nil
			break
		}
		rep.Hows[i], rep.Results[i] = how, json.RawMessage(js)
	}
	rbody, err := json.Marshal(rep)
	if err != nil {
		s.m.stealsFailed.Inc()
		return
	}
	code, _, err = s.peerDo("POST", victim, "/api/v1/cluster/stolen", rbody)
	if err != nil || code/100 != 2 || rep.Error != "" {
		s.m.stealsFailed.Inc()
		return
	}
	s.m.stealsCompleted.Inc()
}

// ---------------------------------------------------------------------------
// HTTP handlers (mounted in API.Handler, outside tenant auth)

// clusterGuard resolves the attached node and (for peer-to-peer payload
// endpoints) enforces the cluster-name header. Unclustered daemons answer 404
// on every cluster route.
func (a *API) clusterGuard(w http.ResponseWriter, r *http.Request, checkName bool) (*cluster.Node, bool) {
	node := a.srv.clusterNode()
	if node == nil {
		a.writeError(w, r, http.StatusNotFound,
			"this daemon is not clustered (run with -cluster-name and -peers)")
		return nil, false
	}
	if checkName {
		if got := r.Header.Get(clusterHeader); got != node.Name() {
			a.writeError(w, r, http.StatusForbidden,
				fmt.Sprintf("cluster name mismatch: got %q, this is %q", got, node.Name()))
			return nil, false
		}
	}
	return node, true
}

// clusterHeartbeat receives a peer's gossip view (name checked in the body by
// the node itself).
func (a *API) clusterHeartbeat(w http.ResponseWriter, r *http.Request) {
	node, ok := a.clusterGuard(w, r, false)
	if !ok {
		return
	}
	node.HandleHeartbeat(w, r)
}

// clusterCompute resolves one config as this node (the owner side of
// forwarding). The response body is the canonical result JSON verbatim.
func (a *API) clusterCompute(w http.ResponseWriter, r *http.Request) {
	if _, ok := a.clusterGuard(w, r, true); !ok {
		return
	}
	var req clusterComputeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		a.writeError(w, r, http.StatusBadRequest, "bad compute request: "+err.Error())
		return
	}
	key := req.Spec.Key(req.Seed)
	if want := fmt.Sprintf("%016x", key); req.Key != want {
		a.writeError(w, r, http.StatusBadRequest, fmt.Sprintf(
			"key derivation mismatch: peer sent %s, this node derives %s (mixed KeyVersion deployment?)",
			req.Key, want))
		return
	}
	_, js, how, err := a.srv.resolveLocal(key, req.Seed, req.Spec, "")
	if err != nil {
		a.writeError(w, r, http.StatusInternalServerError, err.Error())
		return
	}
	a.srv.m.forwardsServed.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Aggsimd-How", how)
	w.Write(js)
}

// clusterLookup serves a cached result to a recovering owner (200 with the
// canonical bytes, 404 when not resident). Never computes.
func (a *API) clusterLookup(w http.ResponseWriter, r *http.Request) {
	if _, ok := a.clusterGuard(w, r, true); !ok {
		return
	}
	var key uint64
	if _, err := fmt.Sscanf(r.URL.Query().Get("key"), "%x", &key); err != nil {
		a.writeError(w, r, http.StatusBadRequest, "bad key: "+err.Error())
		return
	}
	_, js, ok := a.srv.Cache().Peek(key, "")
	if !ok {
		a.srv.m.lookupsMissed.Inc()
		a.writeError(w, r, http.StatusNotFound, "key not resident")
		return
	}
	a.srv.m.lookupsServed.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.Write(js)
}

// clusterReplicate receives a pushed copy. The entry is verified exactly like
// a persisted cache index load: the key is re-derived from the spec, never
// trusted.
func (a *API) clusterReplicate(w http.ResponseWriter, r *http.Request) {
	if _, ok := a.clusterGuard(w, r, true); !ok {
		return
	}
	var ie indexEntry
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&ie); err != nil {
		a.writeError(w, r, http.StatusBadRequest, "bad replica: "+err.Error())
		return
	}
	want := ie.Spec.Key(ie.Seed)
	if fmt.Sprintf("%016x", want) != ie.Key {
		a.writeError(w, r, http.StatusBadRequest,
			"replica key does not match its spec (mixed KeyVersion deployment?)")
		return
	}
	res, js, err := ingestResult(ie.Result)
	if err != nil {
		a.writeError(w, r, http.StatusBadRequest, "bad replica result: "+err.Error())
		return
	}
	a.srv.Cache().Fulfill(want, ie.Seed, ie.Spec, res, js)
	a.srv.m.replicasRecvd.Inc()
	w.WriteHeader(http.StatusNoContent)
}

// clusterSteal hands one queued job to a thief (200 with the job, 204 when
// nothing is stealable).
func (a *API) clusterSteal(w http.ResponseWriter, r *http.Request) {
	if _, ok := a.clusterGuard(w, r, true); !ok {
		return
	}
	var req struct {
		Thief string `json:"thief"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		a.writeError(w, r, http.StatusBadRequest, "bad steal request: "+err.Error())
		return
	}
	sj, ok := a.srv.stealJob(req.Thief)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	a.writeJSON(w, r, http.StatusOK, sj)
}

// clusterStolen finalizes a stolen job with the thief's results; 410 when the
// job was already requeued (the thief's work is discarded — the shared cache
// still keeps whatever it computed).
func (a *API) clusterStolen(w http.ResponseWriter, r *http.Request) {
	if _, ok := a.clusterGuard(w, r, true); !ok {
		return
	}
	var rep stolenReport
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&rep); err != nil {
		a.writeError(w, r, http.StatusBadRequest, "bad stolen report: "+err.Error())
		return
	}
	j, ok := a.srv.takeStolen(rep.ID)
	if !ok {
		a.writeError(w, r, http.StatusGone, "job "+rep.ID+" is not out on loan (requeued or unknown)")
		return
	}
	a.srv.completeStolen(j, rep)
	w.WriteHeader(http.StatusNoContent)
}
