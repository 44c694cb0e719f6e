// Package cluster is the aggsimd peer layer: N daemons form a named cluster
// from a static seed list, maintain membership with lightweight gossip-style
// heartbeats (alive → suspect → dead on silence, refuted by monotonic
// incarnation numbers), and partition the content-addressed key space with a
// consistent-hash ring of virtual nodes over the frozen 64-bit
// hashmap.Digest job keys. The package owns membership and ownership only;
// the serve package builds forwarding and replication on top of it.
// Membership changes move where a result is computed and cached, never what
// its bytes are.
package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"pimdsm/internal/obs/svclog"
)

// State is a member's health as seen by one node.
type State string

// Membership states. A member is alive while heartbeats arrive, suspect
// after SuspectAfter of silence (still in the ring — transient stalls must
// not reshuffle ownership), and dead after DeadAfter (out of the ring until
// it refutes with a higher incarnation).
const (
	StateAlive   State = "alive"
	StateSuspect State = "suspect"
	StateDead    State = "dead"
)

// worse orders states by badness for same-incarnation merges: a rumor can
// only degrade a member within one incarnation; recovery requires either a
// direct heartbeat from the member or a higher incarnation.
func worse(a, b State) bool {
	rank := map[State]int{StateAlive: 0, StateSuspect: 1, StateDead: 2}
	return rank[a] > rank[b]
}

// Member is the gossiped view entry for one node: its advertise address (the
// member identity), the incarnation it claims, and the state the sender
// believes it is in.
type Member struct {
	Addr        string `json:"addr"`
	Incarnation uint64 `json:"incarnation"`
	State       State  `json:"state"`
}

// memberState adds the local evidence (when we last heard from or about the
// member directly) to the gossiped view.
type memberState struct {
	Member
	lastSeen time.Time
}

// Config configures a Node.
type Config struct {
	// Name is the cluster identity; heartbeats across differently named
	// clusters are rejected, so two clusters sharing a network segment (or a
	// stale peer list) cannot merge by accident.
	Name string
	// Self is this node's advertise address (host:port reachable by peers).
	// It is the node's member identity on the ring.
	Self string
	// Seeds are the static bootstrap peers (Self may be listed; it is
	// skipped). Membership beyond the seeds spreads by view gossip.
	Seeds []string
	// Replicas is how many successors receive a copy of each completed hot
	// result (default 2): owner + Replicas nodes can serve the key after the
	// owner dies.
	Replicas int
	// VNodes is each member's virtual-node count on the ring (default 64).
	VNodes int
	// HeartbeatEvery is the gossip period (default 500ms).
	HeartbeatEvery time.Duration
	// SuspectAfter marks a silent member suspect (default 4 heartbeats);
	// DeadAfter removes it from the ring (default 10 heartbeats).
	SuspectAfter time.Duration
	DeadAfter    time.Duration
	// HTTP sends the heartbeats (default: a client with a short timeout
	// derived from HeartbeatEvery, so one stuck peer cannot stall the loop).
	HTTP *http.Client
	// Log receives membership transitions (nil = discard).
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 500 * time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 4 * c.HeartbeatEvery
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 10 * c.HeartbeatEvery
	}
	if c.HTTP == nil {
		to := 3 * c.HeartbeatEvery
		if to > 2*time.Second {
			to = 2 * time.Second
		}
		c.HTTP = &http.Client{Timeout: to}
	}
	if c.Log == nil {
		c.Log = svclog.Nop()
	}
	return c
}

// Stats is a membership snapshot for /api/v1/stats and /metrics.prom.
type Stats struct {
	Name        string `json:"name"`
	Self        string `json:"self"`
	Incarnation uint64 `json:"incarnation"`

	Alive   int `json:"alive"`
	Suspect int `json:"suspect"`
	Dead    int `json:"dead"`

	RingMembers int    `json:"ring_members"`
	RingVersion uint64 `json:"ring_version"`

	HeartbeatsSent     uint64 `json:"heartbeats_sent"`
	HeartbeatsReceived uint64 `json:"heartbeats_received"`
	HeartbeatFailures  uint64 `json:"heartbeat_failures"`
	Refutations        uint64 `json:"refutations"`

	Members []Member `json:"members"`
}

// Node is one cluster member: the local membership table, the ring derived
// from it, and the heartbeat loop.
type Node struct {
	cfg Config

	mu          sync.Mutex
	members     map[string]*memberState
	incarnation uint64
	r           *ring
	ringDirty   bool
	ringVersion uint64
	started     bool
	stopped     bool

	hbSent, hbRecv, hbFail, refutes uint64

	stop chan struct{}
	wg   sync.WaitGroup
}

// New builds a node from cfg. The node knows its seeds immediately (granted
// the benefit of the doubt as alive until DeadAfter passes without contact)
// but sends nothing until Start.
func New(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Name == "" {
		return nil, errors.New("cluster: empty cluster name")
	}
	if cfg.Self == "" {
		return nil, errors.New("cluster: empty advertise address")
	}
	n := &Node{
		cfg:     cfg,
		members: make(map[string]*memberState),
		stop:    make(chan struct{}),
	}
	now := time.Now()
	n.members[cfg.Self] = &memberState{
		Member:   Member{Addr: cfg.Self, State: StateAlive},
		lastSeen: now,
	}
	for _, s := range cfg.Seeds {
		if s == "" || s == cfg.Self {
			continue
		}
		n.members[s] = &memberState{
			Member:   Member{Addr: s, State: StateAlive},
			lastSeen: now,
		}
	}
	n.ringDirty = true
	return n, nil
}

// Name returns the cluster name.
func (n *Node) Name() string { return n.cfg.Name }

// Self returns this node's advertise address.
func (n *Node) Self() string { return n.cfg.Self }

// Replicas returns the configured replication factor.
func (n *Node) Replicas() int { return n.cfg.Replicas }

// Start launches the heartbeat loop. Idempotent.
func (n *Node) Start() {
	n.mu.Lock()
	if n.started || n.stopped {
		n.mu.Unlock()
		return
	}
	n.started = true
	n.mu.Unlock()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.Tick() // first round immediately, so a restart rejoins fast
		t := time.NewTicker(n.cfg.HeartbeatEvery)
		defer t.Stop()
		for {
			select {
			case <-n.stop:
				return
			case <-t.C:
				n.Tick()
			}
		}
	}()
}

// Stop halts the heartbeat loop and waits for it. Idempotent.
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	n.mu.Unlock()
	close(n.stop)
	n.wg.Wait()
}

// ringLocked rebuilds the ring if the membership changed. The ring spans
// alive and suspect members: a suspect node keeps its keys until it is
// declared dead, so a transient stall does not reshuffle ownership (callers
// fall back to successors when a forward to a suspect owner fails).
func (n *Node) ringLocked() *ring {
	if n.ringDirty || n.r == nil {
		var members []string
		for addr, st := range n.members {
			if st.State != StateDead {
				members = append(members, addr)
			}
		}
		n.r = buildRing(members, n.cfg.VNodes)
		n.ringDirty = false
		n.ringVersion++
	}
	return n.r
}

// Owner returns the member owning key and whether it is this node. An empty
// ring (everyone else dead) owns everything locally.
func (n *Node) Owner(key uint64) (addr string, self bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	addr = n.ringLocked().owner(key)
	if addr == "" {
		addr = n.cfg.Self
	}
	return addr, addr == n.cfg.Self
}

// Successors returns up to r distinct members after key's owner — the
// replica set, and the fallback order when the owner is unreachable.
func (n *Node) Successors(key uint64, r int) []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ringLocked().successors(key, r)
}

// AlivePeers returns every alive member except this node.
func (n *Node) AlivePeers() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []string
	for addr, st := range n.members {
		if addr != n.cfg.Self && st.State == StateAlive {
			out = append(out, addr)
		}
	}
	sort.Strings(out)
	return out
}

// Members snapshots the membership table sorted by address.
func (n *Node) Members() []Member {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Member, 0, len(n.members))
	for _, st := range n.members {
		out = append(out, st.Member)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Stats snapshots the node's counters and membership.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := Stats{
		Name:               n.cfg.Name,
		Self:               n.cfg.Self,
		Incarnation:        n.incarnation,
		RingVersion:        n.ringVersion,
		HeartbeatsSent:     n.hbSent,
		HeartbeatsReceived: n.hbRecv,
		HeartbeatFailures:  n.hbFail,
		Refutations:        n.refutes,
	}
	st.RingMembers = len(n.ringLocked().members)
	for _, ms := range n.members {
		switch ms.State {
		case StateAlive:
			st.Alive++
		case StateSuspect:
			st.Suspect++
		case StateDead:
			st.Dead++
		}
		st.Members = append(st.Members, ms.Member)
	}
	sort.Slice(st.Members, func(i, j int) bool { return st.Members[i].Addr < st.Members[j].Addr })
	return st
}

// heartbeatMsg is the gossip wire format: the sender's identity and its full
// membership view (small clusters; no need for partial views).
type heartbeatMsg struct {
	Cluster string   `json:"cluster"`
	From    string   `json:"from"`
	View    []Member `json:"view"`
}

// viewLocked copies the membership table for gossip, with this node's own
// entry always alive at the current incarnation.
func (n *Node) viewLocked() []Member {
	out := make([]Member, 0, len(n.members))
	for _, ms := range n.members {
		m := ms.Member
		if m.Addr == n.cfg.Self {
			m.Incarnation = n.incarnation
			m.State = StateAlive
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Tick runs one gossip round: sweep timeouts, then exchange views with every
// known peer (dead ones included — that is how a restarted node is noticed).
// Exported so tests can drive membership deterministically without timers.
func (n *Node) Tick() {
	n.mu.Lock()
	n.sweepLocked(time.Now())
	msg := heartbeatMsg{Cluster: n.cfg.Name, From: n.cfg.Self, View: n.viewLocked()}
	var targets []string
	for addr := range n.members {
		if addr != n.cfg.Self {
			targets = append(targets, addr)
		}
	}
	n.mu.Unlock()
	// Random order: no node is systematically last to hear news.
	rand.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
	for _, t := range targets {
		n.sendHeartbeat(t, msg)
	}
}

// sweepLocked ages silent members: alive → suspect → dead.
func (n *Node) sweepLocked(now time.Time) {
	for addr, ms := range n.members {
		if addr == n.cfg.Self {
			ms.lastSeen = now
			continue
		}
		silent := now.Sub(ms.lastSeen)
		switch {
		case ms.State == StateAlive && silent > n.cfg.SuspectAfter:
			ms.State = StateSuspect
			n.cfg.Log.Warn("cluster_member_suspect", "member", addr, "silent", silent.String())
		case ms.State != StateDead && silent > n.cfg.DeadAfter:
			ms.State = StateDead
			n.ringDirty = true
			n.cfg.Log.Warn("cluster_member_dead", "member", addr, "silent", silent.String())
		}
	}
}

// sendHeartbeat exchanges views with one peer and merges the response.
func (n *Node) sendHeartbeat(peer string, msg heartbeatMsg) {
	body, err := json.Marshal(msg)
	if err != nil {
		return
	}
	resp, err := n.cfg.HTTP.Post("http://"+peer+"/api/v1/cluster/heartbeat",
		"application/json", bytes.NewReader(body))
	if err != nil {
		n.mu.Lock()
		n.hbFail++
		n.mu.Unlock()
		return
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil || resp.StatusCode != http.StatusOK {
		n.mu.Lock()
		n.hbFail++
		n.mu.Unlock()
		return
	}
	var reply heartbeatMsg
	if err := json.Unmarshal(data, &reply); err != nil || reply.Cluster != n.cfg.Name {
		n.mu.Lock()
		n.hbFail++
		n.mu.Unlock()
		return
	}
	n.mu.Lock()
	n.hbSent++
	n.mergeLocked(reply.From, reply.View)
	n.mu.Unlock()
}

// HandleHeartbeat is the HTTP endpoint peers POST their views to; it merges
// the sender's view and replies with ours. A cluster-name mismatch is a 403:
// differently named clusters never exchange state.
func (n *Node) HandleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var msg heartbeatMsg
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&msg); err != nil {
		http.Error(w, "bad heartbeat: "+err.Error(), http.StatusBadRequest)
		return
	}
	if msg.Cluster != n.cfg.Name {
		http.Error(w, fmt.Sprintf("cluster name mismatch: got %q, this is %q", msg.Cluster, n.cfg.Name),
			http.StatusForbidden)
		return
	}
	n.mu.Lock()
	n.hbRecv++
	n.mergeLocked(msg.From, msg.View)
	reply := heartbeatMsg{Cluster: n.cfg.Name, From: n.cfg.Self, View: n.viewLocked()}
	n.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(reply)
}

// mergeLocked folds a received view into the membership table. Rules, in
// order of precedence:
//
//   - Our own entry: a rumor that we are suspect/dead at an incarnation ≥
//     ours is refuted by bumping our incarnation past it (self-refutation —
//     this is what lets a restarted node, whose incarnation reset to zero,
//     override its lingering "dead" entry everywhere).
//   - The sender itself: a direct heartbeat is proof of life that overrides
//     any rumor, whatever the incarnations say.
//   - Anyone else: higher incarnation wins outright; within an incarnation a
//     state can only get worse (alive < suspect < dead).
func (n *Node) mergeLocked(from string, view []Member) {
	now := time.Now()
	for _, m := range view {
		if m.Addr == "" {
			continue
		}
		if m.Addr == n.cfg.Self {
			if m.State != StateAlive && m.Incarnation >= n.incarnation {
				n.incarnation = m.Incarnation + 1
				n.refutes++
				n.cfg.Log.Info("cluster_self_refuted", "rumored", string(m.State),
					"incarnation", n.incarnation)
			}
			continue
		}
		ms, known := n.members[m.Addr]
		if !known {
			ms = &memberState{Member: m}
			if m.State == StateAlive {
				ms.lastSeen = now
			}
			n.members[m.Addr] = ms
			n.ringDirty = true
			n.cfg.Log.Info("cluster_member_discovered", "member", m.Addr, "state", string(m.State))
			continue
		}
		if m.Addr == from {
			if ms.Incarnation < m.Incarnation {
				ms.Incarnation = m.Incarnation
			}
			if ms.State != StateAlive {
				n.ringDirty = true
				n.cfg.Log.Info("cluster_member_recovered", "member", m.Addr)
			}
			ms.State = StateAlive
			ms.lastSeen = now
			continue
		}
		switch {
		case m.Incarnation > ms.Incarnation:
			if ms.State != m.State {
				n.ringDirty = true
			}
			ms.Incarnation = m.Incarnation
			ms.State = m.State
			if m.State == StateAlive {
				ms.lastSeen = now
			}
		case m.Incarnation == ms.Incarnation && worse(m.State, ms.State):
			ms.State = m.State
			n.ringDirty = true
		}
	}
	// A heartbeat from an unlisted sender introduces it.
	if from != "" && from != n.cfg.Self {
		if ms, known := n.members[from]; !known {
			n.members[from] = &memberState{
				Member:   Member{Addr: from, State: StateAlive},
				lastSeen: now,
			}
			n.ringDirty = true
		} else {
			if ms.State != StateAlive {
				n.ringDirty = true
			}
			ms.State = StateAlive
			ms.lastSeen = now
		}
	}
}
