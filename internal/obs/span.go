package obs

import (
	"fmt"
	"io"
	"sort"

	"pimdsm/internal/proto"
	"pimdsm/internal/sim"
)

// Phase names one leg of a memory transaction's critical path. The engines
// mark phase crossings on the open span as the transaction advances; each
// mark attributes the cycles since the previous crossing to the named phase,
// so the per-phase buckets of a retired span sum exactly to its end-to-end
// latency by construction (checked again at retirement; see Spans.End).
type Phase uint8

const (
	// PhaseIssue: work at the requesting P-node before the transaction
	// leaves it — cache lookups, the local-memory access, and (for local
	// hits) the entire access. OS page-mapping work on the access path is
	// charged here too.
	PhaseIssue Phase = iota
	// PhaseNetRequest: the request's trip through the mesh from the
	// requester to the home node, including link queueing.
	PhaseNetRequest
	// PhaseDirOcc: occupancy of the home's directory handler — queueing
	// behind earlier transactions, the software-handler latency, and any
	// disk fault serviced at the home.
	PhaseDirOcc
	// PhaseOwnerFetch: the detour of a three-hop transaction — forwarding
	// to the owner or master and its memory access, up to the moment the
	// data reply leaves that node.
	PhaseOwnerFetch
	// PhaseNetReply: the data or grant reply's trip back to the requester.
	PhaseNetReply
	// PhaseRetire: completion work after the data reply arrives — in
	// practice the wait for invalidation acknowledgements on writes.
	PhaseRetire
	// NumPhases is the number of phases.
	NumPhases
)

// String returns a short stable label for the phase.
func (p Phase) String() string {
	switch p {
	case PhaseIssue:
		return "issue"
	case PhaseNetRequest:
		return "net-req"
	case PhaseDirOcc:
		return "dir-occ"
	case PhaseOwnerFetch:
		return "owner"
	case PhaseNetReply:
		return "net-reply"
	case PhaseRetire:
		return "retire"
	}
	return fmt.Sprintf("Phase(%d)", uint8(p))
}

// Span is one retired memory transaction with its per-phase cycle
// attribution. Phases sums exactly to End-Start for every span the recorder
// keeps; spans for which that could not be established (a non-monotone mark)
// are dropped and counted by Spans.Bad instead.
type Span struct {
	ID     uint64              // dense transaction ID, 0-based per run
	Start  sim.Time            // issue time at the requesting P-node
	End    sim.Time            // retirement time (access done)
	Addr   uint64              // line-aligned address
	Phases [NumPhases]sim.Time // cycles attributed to each phase
	Queued sim.Time            // mesh link queueing observed while open
	Node   int32               // requesting P-node
	Class  proto.LatClass      // where the access was satisfied
	Write  bool
}

// Latency returns the span's end-to-end cycles.
func (s *Span) Latency() sim.Time { return s.End - s.Start }

// PhaseSum returns the sum of the per-phase buckets (== Latency for every
// kept span).
func (s *Span) PhaseSum() sim.Time {
	var sum sim.Time
	for _, v := range s.Phases {
		sum += v
	}
	return sum
}

// Spans records transaction spans. Like Trace, a single nop instance backs
// every disabled recorder so the emit-path guard is one predictable branch
// and the recording paths never allocate; recording never feeds back into
// timing, so results are bit-identical with spans on or off.
//
// The engines are transaction-atomic (each access runs to completion before
// the next begins), so at most one span is open per recorder at any time and
// the recorder needs no transaction lookup: Begin opens the span, Mark
// advances a cursor attributing elapsed cycles to phases, End retires it
// into per-(write,class,phase) aggregate tables and a bounded keep-ring.
type Spans struct {
	on     bool
	open   bool
	marked bool // a Mark happened: End's remainder is retire, not issue
	cur    Span
	cursor sim.Time
	next   uint64

	agg     [2][proto.NumLatClasses][NumPhases]sim.Time
	queued  [2][proto.NumLatClasses]sim.Time
	count   [2][proto.NumLatClasses]uint64
	retired uint64

	bad        uint64
	badSamples []string

	keep     []Span
	keepMask uint64
	kept     uint64

	mirror      *Dashboard
	mirrorKey   string
	mirrorEvery uint64
}

// nopSpans is the shared disabled recorder.
var nopSpans = &Spans{}

// NopSpans returns the shared disabled recorder: On reports false and every
// method is a cheap no-op.
func NopSpans() *Spans { return nopSpans }

// maxBadSamples bounds the diagnostic strings kept for bad spans.
const maxBadSamples = 8

// NewSpans returns an enabled recorder keeping the most recent `keep`
// retired spans (rounded up to a power of two; 0 selects 4096) alongside the
// full aggregate tables.
func NewSpans(keep int) *Spans {
	if keep <= 0 {
		keep = 1 << 12
	}
	n := 1
	for n < keep {
		n <<= 1
	}
	return &Spans{
		on:       true,
		keep:     make([]Span, n),
		keepMask: uint64(n - 1),
	}
}

// On reports whether the recorder is enabled. Every annotation site guards
// with it so a disabled recorder costs one branch.
func (s *Spans) On() bool { return s.on }

// Begin opens a span for an access issued at `at` by P-node `node`. If a
// span is somehow still open (an engine bug), it is discarded and counted
// as bad.
func (s *Spans) Begin(at sim.Time, node int32, addr uint64, write bool) {
	if !s.on {
		return
	}
	if s.open {
		s.bad++
	}
	s.cur = Span{ID: s.next, Start: at, Addr: addr, Node: node, Write: write}
	s.next++
	s.cursor = at
	s.open = true
	s.marked = false
}

// Mark attributes the cycles since the previous crossing (or since Begin)
// to phase p and advances the cursor to t. A mark at or before the cursor
// attributes nothing — overlapped work that another phase already covers —
// but still records that the transaction left the P-node, so End's
// remainder lands in retire.
func (s *Spans) Mark(p Phase, t sim.Time) {
	if !s.on || !s.open {
		return
	}
	s.marked = true
	if t <= s.cursor {
		return
	}
	s.cur.Phases[p] += t - s.cursor
	s.cursor = t
}

// AddQueued accumulates mesh link queueing observed while the span is open.
// It is a diagnostic overlay (queueing cycles are already inside whichever
// phase the message belongs to), not an extra phase.
func (s *Spans) AddQueued(d sim.Time) {
	if !s.on || !s.open {
		return
	}
	s.cur.Queued += d
}

// End retires the open span at time t with satisfaction class class. The
// un-attributed remainder t-cursor goes to retire when any Mark happened
// (a transaction that left the P-node) and to issue otherwise (a pure local
// hit). A retirement before the cursor — only possible via a non-monotone
// mark sequence — discards the span as bad with a bounded sample kept for
// diagnosis.
func (s *Spans) End(t sim.Time, class proto.LatClass) {
	if !s.on || !s.open {
		return
	}
	s.open = false
	if t < s.cursor || t < s.cur.Start || class >= proto.NumLatClasses {
		s.bad++
		if len(s.badSamples) < maxBadSamples {
			s.badSamples = append(s.badSamples, fmt.Sprintf(
				"span %d node %d addr %#x: end %d before cursor %d (start %d, class %v)",
				s.cur.ID, s.cur.Node, s.cur.Addr, t, s.cursor, s.cur.Start, class))
		}
		return
	}
	rem := t - s.cursor
	if s.marked {
		s.cur.Phases[PhaseRetire] += rem
	} else {
		s.cur.Phases[PhaseIssue] += rem
	}
	s.cur.End = t
	s.cur.Class = class

	// The construction guarantees the buckets sum to the latency; verify
	// anyway so any future mark-site mistake is caught at the source.
	if s.cur.PhaseSum() != t-s.cur.Start {
		s.bad++
		if len(s.badSamples) < maxBadSamples {
			s.badSamples = append(s.badSamples, fmt.Sprintf(
				"span %d node %d addr %#x: phases sum %d != latency %d",
				s.cur.ID, s.cur.Node, s.cur.Addr, s.cur.PhaseSum(), t-s.cur.Start))
		}
		return
	}

	w := 0
	if s.cur.Write {
		w = 1
	}
	for p, v := range s.cur.Phases {
		s.agg[w][class][p] += v
	}
	s.queued[w][class] += s.cur.Queued
	s.count[w][class]++
	s.retired++
	s.keep[s.kept&s.keepMask] = s.cur
	s.kept++

	if s.mirror != nil && s.retired%s.mirrorEvery == 0 {
		s.publish()
	}
}

// Retired returns the number of spans folded into the aggregates.
func (s *Spans) Retired() uint64 { return s.retired }

// Bad returns the number of spans discarded for attribution failures; any
// nonzero value indicates an engine annotation bug.
func (s *Spans) Bad() uint64 { return s.bad }

// BadSamples returns up to maxBadSamples diagnostics for discarded spans.
func (s *Spans) BadSamples() []string { return s.badSamples }

// Count returns how many spans of the given direction and class retired.
func (s *Spans) Count(write bool, class proto.LatClass) uint64 {
	w := 0
	if write {
		w = 1
	}
	return s.count[w][class]
}

// PhaseCycles returns the total cycles attributed to a phase over all
// retired spans of the given direction and class.
func (s *Spans) PhaseCycles(write bool, class proto.LatClass, p Phase) sim.Time {
	w := 0
	if write {
		w = 1
	}
	return s.agg[w][class][p]
}

// QueuedCycles returns the total mesh queueing observed by retired spans of
// the given direction and class.
func (s *Spans) QueuedCycles(write bool, class proto.LatClass) sim.Time {
	w := 0
	if write {
		w = 1
	}
	return s.queued[w][class]
}

// Kept returns the retained spans, oldest first (at most the keep-ring
// capacity, the most recent retirements).
func (s *Spans) Kept() []Span {
	if s.kept == 0 {
		return nil
	}
	n := s.kept
	if n > uint64(len(s.keep)) {
		n = uint64(len(s.keep))
	}
	out := make([]Span, 0, n)
	for i := s.kept - n; i < s.kept; i++ {
		out = append(out, s.keep[i&s.keepMask])
	}
	return out
}

// Reset clears every table and counter, keeping capacity and enablement.
func (s *Spans) Reset() {
	on, keep, mask := s.on, s.keep, s.keepMask
	mirror, key, every := s.mirror, s.mirrorKey, s.mirrorEvery
	*s = Spans{on: on, keep: keep, keepMask: mask,
		mirror: mirror, mirrorKey: key, mirrorEvery: every}
	for i := range keep {
		keep[i] = Span{}
	}
}

// SetMirror publishes a breakdown snapshot to dashboard d under key every
// `every` retirements (0 selects 4096), so a live run is observable at
// /spans while it executes. Publishing happens on the simulation goroutine;
// the dashboard only hands pre-rendered text to HTTP readers.
func (s *Spans) SetMirror(d *Dashboard, key string, every uint64) {
	if !s.on {
		return
	}
	if every == 0 {
		every = 1 << 12
	}
	s.mirror, s.mirrorKey, s.mirrorEvery = d, key, every
}

func (s *Spans) publish() {
	var b []byte
	b = append(b, s.StatusText()...)
	s.mirror.Publish(s.mirrorKey, string(b))
}

// StatusText renders the aggregate breakdown plus the most recent retired
// spans as a fixed-width text block (the /spans dashboard page).
func (s *Spans) StatusText() string {
	var w writerBuf
	s.WriteBreakdown(&w)
	fmt.Fprintf(&w, "\nrecent spans (of %d retired, %d bad):\n", s.retired, s.bad)
	fmt.Fprintf(&w, "%10s %6s %5s %-6s %-7s %12s %10s\n",
		"id", "node", "rw", "class", "latency", "addr", "queued")
	kept := s.Kept()
	const show = 16
	if len(kept) > show {
		kept = kept[len(kept)-show:]
	}
	for i := range kept {
		sp := &kept[i]
		rw := "r"
		if sp.Write {
			rw = "w"
		}
		fmt.Fprintf(&w, "%10d %6d %5s %-6s %7d %#12x %10d\n",
			sp.ID, sp.Node, rw, sp.Class, sp.Latency(), sp.Addr, sp.Queued)
	}
	return string(w)
}

// writerBuf is a minimal io.Writer over a byte slice (avoids importing
// bytes just for rendering).
type writerBuf []byte

func (w *writerBuf) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}

// WriteBreakdown writes the per-(direction, class) phase attribution table:
// span counts, average end-to-end latency, and average cycles per phase.
// Rows appear in a fixed order, so the output is deterministic.
func (s *Spans) WriteBreakdown(w io.Writer) {
	fmt.Fprintf(w, "%-2s %-6s %10s %9s", "rw", "class", "count", "avg-lat")
	for p := Phase(0); p < NumPhases; p++ {
		fmt.Fprintf(w, " %9s", p)
	}
	fmt.Fprintf(w, " %9s\n", "queued")
	for wi, rw := range [2]string{"r", "w"} {
		for c := proto.LatClass(0); c < proto.NumLatClasses; c++ {
			n := s.count[wi][c]
			if n == 0 {
				continue
			}
			var total sim.Time
			for _, v := range s.agg[wi][c] {
				total += v
			}
			fmt.Fprintf(w, "%-2s %-6s %10d %9.1f", rw, c, n, float64(total)/float64(n))
			for p := Phase(0); p < NumPhases; p++ {
				fmt.Fprintf(w, " %9.1f", float64(s.agg[wi][c][p])/float64(n))
			}
			fmt.Fprintf(w, " %9.1f\n", float64(s.queued[wi][c])/float64(n))
		}
	}
}

// SortSpans orders spans by retirement time, then ID (stable across
// identical runs).
func SortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].End != spans[j].End {
			return spans[i].End < spans[j].End
		}
		return spans[i].ID < spans[j].ID
	})
}
