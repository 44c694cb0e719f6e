package serve

// Cluster glue (DESIGN.md §15): this file builds the distributed service on
// top of internal/cluster's membership and ring. Two mechanisms, both
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
//
// Load spreads by ownership alone: 421 redirects send clients to the key's
// owner, and a front door forwards whatever configs it does not own.
//
// The peer endpoints sit outside tenant authentication; their admission check
// is the shared cluster name carried in the X-Aggsimd-Cluster header (and,
// for payload-bearing endpoints, the key-derivation check that also guards
// the persisted cache index). Without an attached node every cluster route is
// an inert 404 and no stats field or metric family below is rendered — the
// single-node daemon stays byte-identical.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
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
		Redirects:        m.redirects.Value(),
	}
}

// AttachCluster joins the server to a cluster and starts the node's heartbeat
// loop. Call once, before serving traffic; attaching after Shutdown began is
// a no-op.
func (s *Server) AttachCluster(node *cluster.Node) {
	s.mu.Lock()
	if s.cluster != nil || s.draining {
		s.mu.Unlock()
		return
	}
	s.cluster = node
	// A forwarded compute may wait for a slot and then simulate at the
	// owner; the peer client timeout must cover that, not just a cache probe.
	s.clusterHTTP = &http.Client{Timeout: 2 * time.Minute}
	s.mu.Unlock()
	s.opt.Log.Info("cluster_attached", "cluster", node.Name(), "self", node.Self(),
		"replicas", node.Replicas())
	node.Start()
}

// owns reports whether node owns key; outside cluster mode (nil) every key
// is this node's.
func owns(node *cluster.Node, key uint64) bool {
	if node == nil {
		return true
	}
	_, self := node.Owner(key)
	return self
}

// clusterNode returns the attached node (nil outside cluster mode).
func (s *Server) clusterNode() *cluster.Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cluster
}

// stopCluster tears the peer layer down: heartbeats stop and in-flight
// replications drain. Idempotent; called from Shutdown.
func (s *Server) stopCluster() {
	s.mu.Lock()
	node := s.cluster
	if node == nil || s.clusterClosed {
		s.mu.Unlock()
		return
	}
	s.clusterClosed = true
	s.mu.Unlock()
	node.Stop()
	s.clusterWG.Wait()
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
// owner half of compute-at-owner routing — it never forwards. A simulation
// waits in the slot queue at priority 0 like a job admitted on its arrival,
// so peer computes stay inside the node's budget. The cache outcome and any
// simulation count against tenant ("" for peer traffic).
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
	if rres, rjs, ok := s.recoverFromReplicas(key, cs); ok {
		s.cache.Fulfill(key, seed, cs.canonical(), rres, rjs)
		return rres, rjs, "recovered", nil
	}
	var err error
	s.acquireSlot(nil)
	s.runInSlot(cs.canonical().Config(), func(r *machine.Result, e error) { res, err = r, e })
	if err == nil {
		js, err = canonicalResultJSON(res)
	}
	if err != nil {
		s.cache.Abort(key, err)
		return nil, nil, "", err
	}
	s.cache.Fulfill(key, seed, cs.canonical(), res, js)
	s.m.simRuns.With(tenant).Inc()
	s.m.simCycles.With(tenant).Add(uint64(res.Breakdown.Exec))
	s.replicateAsync(key, seed, cs.canonical(), js)
	return res, js, "simulated", nil
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
	if owns(node, key) {
		return s.resolveLocal(key, seed, cs, tenant)
	}
	owner, _ := node.Owner(key)
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
	res, js, err := ingestResult(data, cs)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: peer %s compute: %w", peer, err)
	}
	return res, js, nil
}

// recoverFromReplicas probes the key's successor set for a replicated copy
// of cs's result.
func (s *Server) recoverFromReplicas(key uint64, cs ConfigSpec) (*machine.Result, []byte, bool) {
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
		res, js, err := ingestResult(data, cs)
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

// remoteFanOut bounds the forwards one job has open at once: connections and
// goroutines, not simulations, which each owner's slot queue bounds.
const remoteFanOut = 4

// resolveRemote resolves a job's peer-owned configs, remoteFanOut at a time,
// handing each outcome to resolved; it returns the first error.
func (s *Server) resolveRemote(j *Job, remote []int, resolved func(int, *machine.Result, []byte, string)) error {
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	sem := make(chan struct{}, remoteFanOut)
	for _, i := range remote {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			res, js, how, err := s.resolveAny(j.keys[i], j.spec.Seed, j.spec.Configs[i], j.spec.Tenant)
			if err == nil {
				resolved(i, res, js, how)
				return
			}
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	return firstErr
}

// accountResolved attributes one resolved config to the job, how being
// resolveAny's vocabulary. It uses only the pre-cluster lifecycle event
// kinds, so every chain still satisfies ValidateEventChain: peer-resolved
// configs surface as cache_hit events with a "cluster:…" detail (from this
// node's perspective, the cluster's replicated cache answered). The cache
// outcome and any simulation were counted where they happened.
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
	// Unmarshal, not a streaming Decode: a body with bytes after its one
	// JSON value is malformed, not a request.
	var req clusterComputeRequest
	body, err := readRequestBody(w, r, 1<<20)
	if err == nil {
		err = json.Unmarshal(body, &req)
	}
	if err != nil {
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
	key, err := strconv.ParseUint(r.URL.Query().Get("key"), 16, 64)
	if err != nil {
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
	// Unmarshal, not a streaming Decode: a body with bytes after its one
	// JSON value is malformed, not a replica.
	body, err := readRequestBody(w, r, 64<<20)
	var ie indexEntry
	if err == nil {
		err = json.Unmarshal(body, &ie)
	}
	if err != nil {
		a.writeError(w, r, http.StatusBadRequest, "bad replica: "+err.Error())
		return
	}
	want := ie.Spec.Key(ie.Seed)
	if fmt.Sprintf("%016x", want) != ie.Key {
		a.writeError(w, r, http.StatusBadRequest,
			"replica key does not match its spec (mixed KeyVersion deployment?)")
		return
	}
	res, js, err := ingestResult(ie.Result, ie.Spec)
	if err != nil {
		a.writeError(w, r, http.StatusBadRequest, "bad replica result: "+err.Error())
		return
	}
	a.srv.Cache().Fulfill(want, ie.Seed, ie.Spec, res, js)
	a.srv.m.replicasRecvd.Inc()
	w.WriteHeader(http.StatusNoContent)
}
