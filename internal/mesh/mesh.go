// Package mesh models the machine's interconnect: a wormhole-routed 2D mesh
// (§3 of the paper) with XY dimension-order routing and per-directed-link
// contention.
//
// The wormhole approximation used here is standard for this class of
// simulator: a message's head advances one router per RouterDelay cycles,
// each directed link on the path is occupied for the message's serialization
// time (size / link bandwidth), and the tail arrives one serialization time
// after the head. Queueing arises naturally from link occupancy. The AGG
// machine uses 2-byte-wide 1 GHz links (2 B/cycle/direction); the NUMA and
// COMA baselines use double-width links so their bisection bandwidth matches
// a 1/1 AGG machine with twice the node count (§3).
package mesh

import (
	"fmt"

	"pimdsm/internal/obs"
	"pimdsm/internal/sim"
)

// Config describes a mesh.
type Config struct {
	Width, Height int
	// BytesPerCycle is the bandwidth of each link, per direction.
	BytesPerCycle uint64
	// RouterDelay is the per-hop head latency in cycles.
	RouterDelay sim.Time
	// HeaderBytes is the size of a message header (control messages are
	// header-only; data messages add the memory line).
	HeaderBytes uint64
}

// DefaultConfig returns the AGG mesh parameters from Table 1, calibrated so
// that an uncontended average-distance 2-hop transaction lands near the
// paper's 298-cycle round trip.
func DefaultConfig(width, height int) Config {
	return Config{
		Width:         width,
		Height:        height,
		BytesPerCycle: 2,
		RouterDelay:   10,
		HeaderBytes:   16,
	}
}

// Stats aggregates traffic counters for a mesh.
type Stats struct {
	Messages   uint64
	Bytes      uint64
	HopsTotal  uint64
	Queued     sim.Time // total queueing delay across all messages
	LatencySum sim.Time // total end-to-end message latency
}

// Diff returns the counters accumulated since the snapshot prev.
func (s Stats) Diff(prev Stats) Stats {
	return Stats{
		Messages:   s.Messages - prev.Messages,
		Bytes:      s.Bytes - prev.Bytes,
		HopsTotal:  s.HopsTotal - prev.HopsTotal,
		Queued:     s.Queued - prev.Queued,
		LatencySum: s.LatencySum - prev.LatencySum,
	}
}

// Mesh is a 2D mesh with one contended resource per directed link.
type Mesh struct {
	cfg Config
	// links[node*4+dir] is the outgoing link of node in direction dir.
	links []sim.Resource
	stats Stats
	trace *obs.Trace
	spans *obs.Spans
	prof  *obs.Profile
}

// Link directions.
const (
	dirEast = iota
	dirWest
	dirNorth
	dirSouth
)

// New builds a mesh. Width and height must be positive.
func New(cfg Config) (*Mesh, error) {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, fmt.Errorf("mesh: invalid dimensions %dx%d", cfg.Width, cfg.Height)
	}
	if cfg.BytesPerCycle == 0 {
		return nil, fmt.Errorf("mesh: zero link bandwidth")
	}
	return &Mesh{
		cfg:   cfg,
		links: make([]sim.Resource, cfg.Width*cfg.Height*4),
		trace: obs.Nop(),
		spans: obs.NopSpans(),
		prof:  obs.NopProfile(),
	}, nil
}

// SetTrace routes per-message trace events (obs.EvMsg) to t; nil disables.
func (m *Mesh) SetTrace(t *obs.Trace) {
	if t == nil {
		t = obs.Nop()
	}
	m.trace = t
}

// SetSpans routes link-queueing attribution to s: while a transaction span
// is open, queueing suffered by any message overlaps the span's lifetime and
// is accumulated as its Queued diagnostic. Nil disables.
func (m *Mesh) SetSpans(s *obs.Spans) {
	if s == nil {
		s = obs.NopSpans()
	}
	m.spans = s
}

// SetProfile routes link-wait observations and queue-depth samples to p and
// sizes its mesh tables; nil disables.
func (m *Mesh) SetProfile(p *obs.Profile) {
	if p == nil {
		p = obs.NopProfile()
	}
	p.SetMeshDims(m.cfg.Width, m.cfg.Height)
	m.prof = p
}

// SetFloor attaches the scheduler floor to every link calendar (nil
// detaches); see sim.Resource.SetFloor.
func (m *Mesh) SetFloor(floor *sim.Time) { sim.SetFloors(floor, m.links) }

// FoldProfile copies every directed link's resource accounting into p.
// Cold path, called once after a run.
func (m *Mesh) FoldProfile(p *obs.Profile) {
	if p == nil || !p.On() {
		return
	}
	p.SetMeshDims(m.cfg.Width, m.cfg.Height)
	for i := range m.links {
		busy, acq, waited := m.links[i].Utilization()
		p.SetLink(i, busy, acq, waited)
	}
}

// MustNew is New, panicking on error.
func MustNew(cfg Config) *Mesh {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Nodes returns the number of mesh endpoints.
func (m *Mesh) Nodes() int { return m.cfg.Width * m.cfg.Height }

// Config returns the mesh configuration.
func (m *Mesh) Config() Config { return m.cfg }

// Coord returns the (x, y) coordinate of a node index.
func (m *Mesh) Coord(node int) (x, y int) { return node % m.cfg.Width, node / m.cfg.Width }

// NodeAt returns the node index at (x, y).
func (m *Mesh) NodeAt(x, y int) int { return y*m.cfg.Width + x }

// Hops returns the XY-routing hop count between two nodes.
func (m *Mesh) Hops(src, dst int) int {
	sx, sy := m.Coord(src)
	dx, dy := m.Coord(dst)
	return abs(sx-dx) + abs(sy-dy)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// serTime is the serialization time of a message of size bytes.
func (m *Mesh) serTime(bytes uint64) sim.Time {
	return sim.Time((bytes + m.cfg.BytesPerCycle - 1) / m.cfg.BytesPerCycle)
}

// ControlBytes returns the size of a header-only message.
func (m *Mesh) ControlBytes() uint64 { return m.cfg.HeaderBytes }

// DataBytes returns the size of a message carrying a memory line.
func (m *Mesh) DataBytes(lineBytes uint64) uint64 { return m.cfg.HeaderBytes + lineBytes }

// Send injects a message of the given size at src at time now and returns the
// time its tail arrives at dst, acquiring every directed link on the XY path.
// A message to self arrives after one serialization time (the on-chip network
// interface loopback).
func (m *Mesh) Send(now sim.Time, src, dst int, bytes uint64) sim.Time {
	ser := m.serTime(bytes)
	m.stats.Messages++
	m.stats.Bytes += bytes
	if src == dst {
		m.stats.LatencySum += ser
		if m.trace.On() {
			m.trace.Emit(obs.EvMsg, now, ser, int32(src), uint64(dst), bytes)
		}
		return now + ser
	}
	sx, sy := m.Coord(src)
	dx, dy := m.Coord(dst)
	// X dimension first, then Y (deterministic, deadlock-free). A node's
	// output links sit at node*4+dir, so each hop east or west moves the
	// link index by ±4 and each hop south or north by ±4·Width.
	t := now
	if dx > sx {
		t = m.walk(t, src*4+dirEast, 4, dx-sx, ser)
	} else if dx < sx {
		t = m.walk(t, src*4+dirWest, -4, sx-dx, ser)
	}
	turn := src + dx - sx // the node at (dx, sy)
	if dy > sy {
		t = m.walk(t, turn*4+dirSouth, 4*m.cfg.Width, dy-sy, ser)
	} else if dy < sy {
		t = m.walk(t, turn*4+dirNorth, -4*m.cfg.Width, sy-dy, ser)
	}
	hops := abs(dx-sx) + abs(dy-sy)
	arrive := t + ser
	m.stats.HopsTotal += uint64(hops)
	m.stats.LatencySum += arrive - now
	if m.trace.On() {
		m.trace.Emit(obs.EvMsg, now, arrive-now, int32(src), uint64(dst), uint64(hops)<<32|bytes)
	}
	return arrive
}

// walk takes a message of serialization time ser that reaches its first
// router at t over n consecutive links along one dimension, the first at
// link index li and each next one step further, and returns the time it
// leaves the last router.
func (m *Mesh) walk(t sim.Time, li, step, n int, ser sim.Time) sim.Time {
	for ; n > 0; n-- {
		start := m.links[li].Acquire(t, ser)
		m.stats.Queued += start - t
		if m.spans.On() {
			m.spans.AddQueued(start - t)
		}
		if m.prof.On() && m.prof.MeshHop(li, start-t) {
			m.prof.MeshSample(li, start, start-t, m.links[li].QueueDepth(start))
		}
		t = start + m.cfg.RouterDelay
		li += step
	}
	return t
}

// Stats returns a copy of the traffic counters.
func (m *Mesh) Stats() Stats { return m.stats }

// AvgHops returns the mean hop distance over all ordered node pairs — useful
// for latency calibration.
func (m *Mesh) AvgHops() float64 {
	n := m.Nodes()
	if n <= 1 {
		return 0
	}
	total := 0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			total += m.Hops(s, d)
		}
	}
	return float64(total) / float64(n*n-n)
}
