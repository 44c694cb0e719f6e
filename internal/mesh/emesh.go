// Event-driven partitioned mesh simulation.
//
// Mesh.Send is the synchronous model the paper machines use: it walks a
// message's whole path inside one call, reserving every link on a busy
// calendar. That is exact for execution-driven runs but fundamentally
// serial — the caller's transaction atomically touches links owned by every
// node it passes. Events is the complementary model for large-scale traffic
// studies (256–1024-node meshes, DPU-style fleets): each node is an actor,
// a message advances router-by-router as discrete events, each outgoing
// link's occupancy is state owned by the node it leaves, and the whole
// simulation runs on sim.Sharded with the lookahead derived from
// Config.MinLinkLatency. Per-hop service is in event order (no calendar
// backfill), so results are not comparable to Mesh.Send cycle-for-cycle;
// the determinism oracle for this model is its own single-shard run, which
// every shard count must reproduce bit-identically.
package mesh

import (
	"fmt"

	"pimdsm/internal/sim"
)

// Pattern selects a synthetic traffic pattern.
type Pattern uint8

const (
	// Uniform sends each message to a uniformly random node.
	Uniform Pattern = iota
	// Transpose sends (x, y) -> (y, x): the classic adversarial permutation
	// for XY routing (every message crosses the diagonal).
	Transpose
	// Hotspot sends 1/8 of traffic to the center node, the rest uniformly:
	// a home-directory or root-lock hot block.
	Hotspot
	// NeighborRing sends to the node one row south (wrapping): single-hop
	// nearest-neighbor traffic that crosses every row-band shard boundary,
	// the highest event rate per simulated cycle.
	NeighborRing
)

func (p Pattern) String() string {
	switch p {
	case Uniform:
		return "uniform"
	case Transpose:
		return "transpose"
	case Hotspot:
		return "hotspot"
	case NeighborRing:
		return "neighbor"
	default:
		return fmt.Sprintf("pattern(%d)", uint8(p))
	}
}

// Traffic configures the synthetic load every node injects.
type Traffic struct {
	Pattern Pattern
	// Period is each node's injection interval in cycles (must be > 0).
	Period sim.Time
	// RequestBytes is the size of an injected message; 0 means a
	// header-only control message (a DSM read request).
	RequestBytes uint64
	// ResponseBytes, when non-zero, makes every delivered request trigger a
	// reply of that payload size back to the source (header added) — the
	// request/data-response shape of directory-protocol traffic.
	ResponseBytes uint64
	// StopInjecting, when non-zero, ends injection at that time; in-flight
	// messages still drain until the run's horizon.
	StopInjecting sim.Time
	// Seed perturbs the per-node generators; runs with equal seeds are
	// bit-identical at every shard count.
	Seed uint64
}

// EventStats aggregates the event-driven mesh's counters. All fields are
// sums of per-node counters folded in node order, so they are independent
// of shard count and scheduling.
type EventStats struct {
	Injected   uint64   // messages entered at their source (incl. replies)
	Delivered  uint64   // messages that reached their destination
	Replies    uint64   // request deliveries that triggered a response
	Bytes      uint64   // sum of message sizes over completed hops
	Hops       uint64   // router-to-router hops taken
	Queued     sim.Time // cycles messages waited for busy outgoing links
	LatencySum sim.Time // end-to-end latency of delivered messages
}

// eNode is one mesh endpoint's actor state: everything a node's handlers
// touch lives here, which is what makes window-parallel execution safe.
type eNode struct {
	h        *sim.NodeHandle
	linkFree [4]sim.Time // next free time of each outgoing link
	rng      uint64
	inject   *sim.Recurring
	st       EventStats
	fp       uint64   // running delivery fingerprint
	_        [24]byte // pad: adjacent nodes land on different shards
}

// Events is an event-driven mesh running on the partitioned engine.
type Events struct {
	cfg   Config
	tr    Traffic
	sh    *sim.Sharded
	nodes []eNode
}

// emsg is one in-flight message, passed by value hop to hop.
type emsg struct {
	src, dst int32
	bytes    uint64
	injected sim.Time
	reply    bool
}

// NewEvents builds an event-driven mesh over cfg partitioned into shards
// row-major bands. The engine lookahead is cfg.MinLinkLatency(); a config
// with zero router delay is rejected (zero lookahead cannot window).
func NewEvents(cfg Config, shards int, tr Traffic) (*Events, error) {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, fmt.Errorf("mesh: invalid dimensions %dx%d", cfg.Width, cfg.Height)
	}
	if cfg.BytesPerCycle == 0 {
		return nil, fmt.Errorf("mesh: zero link bandwidth")
	}
	if tr.Period == 0 {
		return nil, fmt.Errorf("mesh: traffic needs a positive injection period")
	}
	n := cfg.Width * cfg.Height
	sh, err := sim.NewSharded(n, shards, cfg.MinLinkLatency())
	if err != nil {
		return nil, fmt.Errorf("mesh: %w", err)
	}
	e := &Events{cfg: cfg, tr: tr, sh: sh, nodes: make([]eNode, n)}
	for i := 0; i < n; i++ {
		nd := &e.nodes[i]
		nd.h = sh.Node(i)
		nd.rng = splitmix(uint64(i)*0x9e3779b97f4a7c15 + tr.Seed + 1)
		i := i
		// Stagger first injections across the period so window 0 is not a
		// synchronized burst; the offset is node-deterministic.
		first := sim.Time(uint64(i) % uint64(tr.Period))
		nd.inject = nd.h.EveryNamed(first, tr.Period, "inject", func() { e.injectFrom(i) })
	}
	return e, nil
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// next returns the node's next pseudo-random draw. Node-local, so draws are
// consumed in a deterministic order at every shard count.
func (nd *eNode) next() uint64 {
	nd.rng = splitmix(nd.rng)
	return nd.rng
}

func (e *Events) destFor(n int, nd *eNode) int {
	total := len(e.nodes)
	switch e.tr.Pattern {
	case Transpose:
		x, y := n%e.cfg.Width, n/e.cfg.Width
		if x >= e.cfg.Height || y >= e.cfg.Width {
			return (n + total/2) % total // non-square fallback: antipode
		}
		return x*e.cfg.Width + y
	case Hotspot:
		r := nd.next()
		if r&7 == 0 {
			return total / 2
		}
		return int((r >> 3) % uint64(total))
	case NeighborRing:
		return (n + e.cfg.Width) % total
	default: // Uniform
		return int(nd.next() % uint64(total))
	}
}

// injectFrom runs on node n's shard at each injection tick.
func (e *Events) injectFrom(n int) {
	nd := &e.nodes[n]
	now := nd.h.Now()
	if e.tr.StopInjecting != 0 && now >= e.tr.StopInjecting {
		nd.h.Stop(nd.inject)
		return
	}
	bytes := e.tr.RequestBytes
	if bytes == 0 {
		bytes = e.cfg.HeaderBytes
	}
	dst := e.destFor(n, nd)
	nd.st.Injected++
	e.route(n, emsg{src: int32(n), dst: int32(dst), bytes: bytes, injected: now})
}

// serTime is the link serialization time of a message (same formula as the
// synchronous mesh).
func (e *Events) serTime(bytes uint64) sim.Time {
	return sim.Time((bytes + e.cfg.BytesPerCycle - 1) / e.cfg.BytesPerCycle)
}

// route runs on node n's shard and advances msg by one hop (or delivers
// it). All mutated state — n's outgoing links and counters — is owned by n.
func (e *Events) route(n int, msg emsg) {
	nd := &e.nodes[n]
	now := nd.h.Now()
	if int32(n) == msg.dst {
		e.deliver(n, msg)
		return
	}
	x, y := n%e.cfg.Width, n/e.cfg.Width
	dx, dy := int(msg.dst)%e.cfg.Width, int(msg.dst)/e.cfg.Width
	var dir, nb int
	switch { // XY dimension order, as the synchronous mesh routes
	case x < dx:
		dir, nb = dirEast, n+1
	case x > dx:
		dir, nb = dirWest, n-1
	case y < dy:
		dir, nb = dirSouth, n+e.cfg.Width
	default:
		dir, nb = dirNorth, n-e.cfg.Width
	}
	ser := e.serTime(msg.bytes)
	start := now
	if f := nd.linkFree[dir]; f > start {
		start = f
	}
	nd.st.Queued += start - now
	nd.linkFree[dir] = start + ser
	nd.st.Hops++
	nd.st.Bytes += msg.bytes
	head := start + e.cfg.RouterDelay
	if int32(nb) == msg.dst {
		// Final hop: the tail arrives one serialization time after the head.
		nd.h.Post(nb, head+ser, func() { e.deliver(nb, msg) })
		return
	}
	nd.h.Post(nb, head, func() { e.route(nb, msg) })
}

// deliver runs on the destination's shard.
func (e *Events) deliver(n int, msg emsg) {
	nd := &e.nodes[n]
	now := nd.h.Now()
	if msg.src == msg.dst {
		// Loopback: one serialization time through the local interface,
		// accounted at delivery (no link traversed).
		now += e.serTime(msg.bytes)
	}
	nd.st.Delivered++
	nd.st.LatencySum += now - msg.injected
	nd.fp = splitmix(nd.fp ^ uint64(now))
	nd.fp = splitmix(nd.fp ^ uint64(msg.src)<<32 ^ uint64(msg.dst) ^ msg.bytes<<16)
	if !msg.reply && e.tr.ResponseBytes != 0 {
		nd.st.Replies++
		nd.st.Injected++
		e.route(n, emsg{
			src:      int32(n),
			dst:      msg.src,
			bytes:    e.cfg.HeaderBytes + e.tr.ResponseBytes,
			injected: now,
			reply:    true,
		})
	}
}

// Run advances the simulation to the given cycle; it may be called
// repeatedly with increasing horizons.
func (e *Events) Run(until sim.Time) { e.sh.RunUntil(until) }

// Shards returns the number of partitions in use.
func (e *Events) Shards() int { return e.sh.Shards() }

// Lookahead returns the engine's window width (== Config.MinLinkLatency).
func (e *Events) Lookahead() sim.Time { return e.sh.Lookahead() }

// EngineStats exposes the partitioned engine's introspection counters.
func (e *Events) EngineStats() sim.ShardedStats { return e.sh.Stats() }

// Stats folds the per-node counters in node order.
func (e *Events) Stats() EventStats {
	var t EventStats
	for i := range e.nodes {
		st := &e.nodes[i].st
		t.Injected += st.Injected
		t.Delivered += st.Delivered
		t.Replies += st.Replies
		t.Bytes += st.Bytes
		t.Hops += st.Hops
		t.Queued += st.Queued
		t.LatencySum += st.LatencySum
	}
	return t
}

// Fingerprint folds every node's delivery fingerprint in node order: a
// strong order-sensitive digest of (time, src, dst, size) for every
// delivery, used by the bit-identity cross-checks. Equal fingerprints mean
// every message arrived at the same node at the same cycle.
func (e *Events) Fingerprint() uint64 {
	var fp uint64
	for i := range e.nodes {
		fp = splitmix(fp ^ e.nodes[i].fp)
	}
	return fp
}

// AvgLatency returns mean end-to-end delivery latency in cycles.
func (e *Events) AvgLatency() float64 {
	st := e.Stats()
	if st.Delivered == 0 {
		return 0
	}
	return float64(st.LatencySum) / float64(st.Delivered)
}
