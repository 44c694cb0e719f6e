package obs

import (
	"bufio"
	"fmt"
	"io"

	"pimdsm/internal/proto"
	"pimdsm/internal/sim"
	"pimdsm/internal/stats"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v uint64 }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { c.v += n }

// Inc increases the counter by one.
func (c *Counter) Inc() { c.v++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is a metric that can move in both directions.
type Gauge struct{ v float64 }

// Set assigns the gauge's value.
func (g *Gauge) Set(v float64) { g.v = v }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// Histogram is a fixed-bucket distribution. Bucket i counts observations
// with value <= bounds[i]; one implicit overflow bucket absorbs the rest.
type Histogram struct {
	bounds []sim.Time
	counts []uint64
	sum    sim.Time
	n      uint64
}

// Observe records one value.
func (h *Histogram) Observe(v sim.Time) {
	h.n++
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() sim.Time { return h.sum }

// Buckets returns the upper bounds and the per-bucket counts (one more
// count than bounds: the overflow bucket). The slices are live; do not
// mutate them.
func (h *Histogram) Buckets() ([]sim.Time, []uint64) { return h.bounds, h.counts }

// Pow2Bounds returns n power-of-two histogram bounds: 1, 2, 4, ... 2^(n-1).
func Pow2Bounds(n int) []sim.Time {
	b := make([]sim.Time, n)
	for i := range b {
		b[i] = 1 << uint(i)
	}
	return b
}

// Registry holds named metrics in registration order, so every rendering of
// it is deterministic. It is not safe for concurrent use: give each
// concurrent run its own registry, or serialize the runs.
type Registry struct {
	order []string
	byN   map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byN: make(map[string]any)}
}

// Counter returns the named counter, creating it on first use. Reusing a
// name for a different metric kind panics — it would silently fork state.
func (r *Registry) Counter(name string) *Counter {
	if m, ok := r.byN[name]; ok {
		c, ok := m.(*Counter)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q is %T, not a counter", name, m))
		}
		return c
	}
	c := &Counter{}
	r.register(name, c)
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if m, ok := r.byN[name]; ok {
		g, ok := m.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q is %T, not a gauge", name, m))
		}
		return g
	}
	g := &Gauge{}
	r.register(name, g)
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []sim.Time) *Histogram {
	if m, ok := r.byN[name]; ok {
		h, ok := m.(*Histogram)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q is %T, not a histogram", name, m))
		}
		return h
	}
	h := &Histogram{bounds: append([]sim.Time(nil), bounds...), counts: make([]uint64, len(bounds)+1)}
	r.register(name, h)
	return h
}

func (r *Registry) register(name string, m any) {
	r.order = append(r.order, name)
	r.byN[name] = m
}

// Names returns the metric names in registration order.
func (r *Registry) Names() []string { return append([]string(nil), r.order...) }

// CollectMachine folds a run's measured stats.Machine into the registry:
// per-class read/write counts and latency sums, the protocol event
// counters, and the read/write latency histograms. Adding is cumulative, so
// collecting several runs aggregates them.
func CollectMachine(r *Registry, m *stats.Machine) {
	for c := proto.LatClass(0); c < proto.NumLatClasses; c++ {
		r.Counter("read.count." + c.String()).Add(m.ReadCount[c])
		r.Counter("read.lat." + c.String()).Add(uint64(m.ReadLatSum[c]))
		r.Counter("write.count." + c.String()).Add(m.WriteCount[c])
		r.Counter("write.lat." + c.String()).Add(uint64(m.WriteLatSum[c]))
	}
	for _, kv := range []struct {
		name string
		v    uint64
	}{
		{"invalidations", m.Invalidations},
		{"writebacks", m.WriteBacks},
		{"recalls", m.Recalls},
		{"pageouts", m.Pageouts},
		{"disk_faults", m.DiskFaults},
		{"injections", m.Injections},
		{"injection_hops", m.InjectionHops},
		{"overflows", m.Overflows},
		{"upgrades", m.Upgrades},
		{"first_touches", m.FirstTouches},
		{"scans", m.Scans},
		{"scan_lines", m.ScanLines},
		{"crisis_pauses", m.CrisisPauses},
	} {
		r.Counter(kv.name).Add(kv.v)
	}
	collectHist(r.Histogram("read.lat.hist", Pow2Bounds(stats.NumLatBuckets-1)), &m.ReadHist)
	collectHist(r.Histogram("write.lat.hist", Pow2Bounds(stats.NumLatBuckets-1)), &m.WriteHist)
}

// collectHist adds a stats.LatHist (power-of-two buckets) into a registry
// histogram created with matching Pow2Bounds.
func collectHist(h *Histogram, lh *stats.LatHist) {
	for i := 0; i < stats.NumLatBuckets && i < len(h.counts); i++ {
		h.counts[i] += lh[i]
	}
	h.n += lh.Total()
}

// WriteJSON renders every metric as a deterministic JSON document.
func (r *Registry) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "{\"metrics\":{")
	for i, name := range r.order {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "%q:", name)
		switch m := r.byN[name].(type) {
		case *Counter:
			fmt.Fprintf(bw, "%d", m.v)
		case *Gauge:
			fmt.Fprintf(bw, "%g", m.v)
		case *Histogram:
			fmt.Fprintf(bw, `{"count":%d,"sum":%d,"buckets":[`, m.n, m.sum)
			for j, c := range m.counts {
				if j > 0 {
					bw.WriteByte(',')
				}
				fmt.Fprintf(bw, "%d", c)
			}
			fmt.Fprint(bw, "]}")
		}
	}
	fmt.Fprint(bw, "}")
	fmt.Fprint(bw, "}\n")
	return bw.Flush()
}
