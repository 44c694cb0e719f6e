package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"pimdsm/internal/jsonwire"
	"pimdsm/internal/proto"
	"pimdsm/internal/sim"
	"pimdsm/internal/stats"
)

// Counter is a monotonically increasing metric. Safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increases the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can move in both directions. Safe for concurrent
// use.
type Gauge struct{ bits atomic.Uint64 }

// Set assigns the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution. Bucket i counts observations
// with value <= bounds[i]; one implicit overflow bucket absorbs the rest.
// Safe for concurrent use.
type Histogram struct {
	bounds []sim.Time
	counts []atomic.Uint64
	sum    atomic.Uint64
	n      atomic.Uint64
}

func newHistogram(bounds []sim.Time) *Histogram {
	return &Histogram{
		bounds: append([]sim.Time(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v sim.Time) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(uint64(v))
	h.n.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() sim.Time { return sim.Time(h.sum.Load()) }

// Buckets returns the upper bounds and a copy of the per-bucket counts (one
// more count than bounds: the overflow bucket). Do not mutate the bounds.
func (h *Histogram) Buckets() ([]sim.Time, []uint64) {
	counts := make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return h.bounds, counts
}

// Pow2Bounds returns n power-of-two histogram bounds: 1, 2, 4, ... 2^(n-1).
func Pow2Bounds(n int) []sim.Time {
	b := make([]sim.Time, n)
	for i := range b {
		b[i] = 1 << uint(i)
	}
	return b
}

// LatBounds returns the bucket edges of a stats.LatHist: 0, 1, 3, 7, ...
// 2^(NumLatBuckets-2)-1, so that bucket i of a histogram built on them is
// bucket i of the LatHist (the last LatHist bucket is the overflow).
func LatBounds() []sim.Time {
	b := make([]sim.Time, stats.NumLatBuckets-1)
	for i := range b {
		b[i] = sim.Time(1)<<uint(i) - 1
	}
	return b
}

// Opts describes a metric family for the labelled and callback
// constructors.
type Opts struct {
	// Help is the family's one-line description (the Prometheus # HELP).
	Help string
	// Labels names the label dimensions, in rendering order.
	Labels []string
	// Rows, when set, is the family's bounded label set: the label-value
	// rows rendered, in order, each at zero until first counted. Nil renders
	// every series created so far, sorted by label values — for dimensions
	// bounded by the code that counts them (route patterns, status codes).
	Rows func() [][]string
	// Show, when set, hides the whole family while it returns false.
	Show func() bool
}

// family is one named metric: either a store of series keyed by label
// values, or a callback read at render time.
type family struct {
	name, typ string
	Opts
	bounds []sim.Time             // histograms
	fn     func([]string) float64 // callback families

	mu     sync.Mutex                         // held only to create a series
	series atomic.Pointer[map[string]*series] // copy-on-write: lookups take no lock
}

// series is one label-value row of a stored family; the family's type says
// which of c, g, h is set.
type series struct {
	values []string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// get returns the series for values, creating it on first use. The lookup
// key is assembled on the stack, so counting into an existing series
// allocates nothing.
func (f *family) get(values []string) *series {
	if len(values) != len(f.Labels) {
		panic(fmt.Sprintf("obs: %s takes %d label values, got %d", f.name, len(f.Labels), len(values)))
	}
	var buf [64]byte
	key := buf[:0]
	for i, v := range values {
		if i > 0 {
			key = append(key, 0xff)
		}
		key = append(key, v...)
	}
	if s := (*f.series.Load())[string(key)]; s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	old := *f.series.Load()
	if s := old[string(key)]; s != nil {
		return s
	}
	s := &series{values: append([]string(nil), values...)}
	switch f.typ {
	case "counter":
		s.c = &Counter{}
	case "gauge":
		s.g = &Gauge{}
	default:
		s.h = newHistogram(f.bounds)
	}
	m := make(map[string]*series, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	m[string(key)] = s
	f.series.Store(&m)
	return s
}

// rows returns the label-value rows to render and their series (nil for a
// callback family). Declared rows are created on first render.
func (f *family) rows() ([][]string, []*series) {
	switch {
	case f.fn != nil && f.Rows == nil:
		return [][]string{nil}, []*series{nil}
	case f.fn != nil:
		rows := f.Rows()
		return rows, make([]*series, len(rows))
	}
	var ss []*series
	if f.Rows != nil {
		for _, row := range f.Rows() {
			ss = append(ss, f.get(row))
		}
	} else {
		for _, s := range *f.series.Load() {
			ss = append(ss, s)
		}
		sort.Slice(ss, func(i, j int) bool { return slices.Compare(ss[i].values, ss[j].values) < 0 })
	}
	rows := make([][]string, len(ss))
	for i, s := range ss {
		rows[i] = s.values
	}
	return rows, ss
}

// value reads a scalar row: the callback's, or the series'.
func (f *family) value(row []string, s *series) float64 {
	switch {
	case f.fn != nil:
		return f.fn(row)
	case s.c != nil:
		return float64(s.c.Value())
	}
	return s.g.Value()
}

func (f *family) shown() bool { return f.Show == nil || f.Show() }

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (one per declared
// label), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter { return v.f.get(values).c }

// Sum adds up every series of the family, declared rows or not.
func (v *CounterVec) Sum() uint64 {
	var n uint64
	for _, s := range *v.f.series.Load() {
		n += s.c.Value()
	}
	return n
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.get(values).h }

// Registry holds named metric families in registration order, so every
// rendering of it is deterministic. It is safe for concurrent use: counting
// is atomic, and a lock is taken only to create a family or a series.
type Registry struct {
	mu    sync.Mutex
	order []*family
	byN   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byN: make(map[string]*family)}
}

// family returns the named family, registering it on first use. Reusing a
// name for a different metric kind panics — it would silently fork state.
func (r *Registry) family(name, typ string, o Opts, bounds []sim.Time, fn func([]string) float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byN[name]; ok {
		if f.typ != typ || (f.fn == nil) != (fn == nil) {
			panic(fmt.Sprintf("obs: metric %q is a %s, not a %s", name, f.typ, typ))
		}
		return f
	}
	f := &family{name: name, typ: typ, Opts: o, bounds: append([]sim.Time(nil), bounds...), fn: fn}
	f.series.Store(&map[string]*series{})
	r.order = append(r.order, f)
	r.byN[name] = f
	return f
}

// Counter returns the named unlabelled counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	return r.family(name, "counter", Opts{}, nil, nil).get(nil).c
}

// Gauge returns the named unlabelled gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return r.family(name, "gauge", Opts{}, nil, nil).get(nil).g
}

// Histogram returns the named unlabelled histogram, creating it with the
// given bucket bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []sim.Time) *Histogram {
	return r.family(name, "histogram", Opts{}, bounds, nil).get(nil).h
}

// CounterVec declares a counter family (o.Labels may be empty: With() then
// returns the one series).
func (r *Registry) CounterVec(name string, o Opts) *CounterVec {
	return &CounterVec{r.family(name, "counter", o, nil, nil)}
}

// HistogramVec declares a histogram family with the given bucket bounds.
func (r *Registry) HistogramVec(name string, bounds []sim.Time, o Opts) *HistogramVec {
	return &HistogramVec{r.family(name, "histogram", o, bounds, nil)}
}

// CounterFunc declares a counter family read at render time: fn gets each
// row's label values (nil for an unlabelled family). Use it for totals kept
// elsewhere, or for a sum over another family.
func (r *Registry) CounterFunc(name string, o Opts, fn func(labels []string) float64) {
	r.family(name, "counter", o, nil, fn)
}

// GaugeFunc declares a gauge family read at render time (queue depths,
// resident entries, membership counts).
func (r *Registry) GaugeFunc(name string, o Opts, fn func(labels []string) float64) {
	r.family(name, "gauge", o, nil, fn)
}

// Names returns the metric names in registration order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, len(r.order))
	for i, f := range r.order {
		names[i] = f.name
	}
	return names
}

// families snapshots the registration order.
func (r *Registry) families() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*family(nil), r.order...)
}

// CollectMachine folds a run's measured stats.Machine into the registry:
// per-class read/write counts and latency sums, the protocol event
// counters, and the read/write latency histograms. Adding is cumulative, so
// collecting several runs aggregates them.
func CollectMachine(r *Registry, m *stats.Machine) {
	var readSum, writeSum sim.Time
	for c := proto.LatClass(0); c < proto.NumLatClasses; c++ {
		r.Counter("read.count." + c.String()).Add(m.ReadCount[c])
		r.Counter("read.lat." + c.String()).Add(uint64(m.ReadLatSum[c]))
		r.Counter("write.count." + c.String()).Add(m.WriteCount[c])
		r.Counter("write.lat." + c.String()).Add(uint64(m.WriteLatSum[c]))
		readSum += m.ReadLatSum[c]
		writeSum += m.WriteLatSum[c]
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
	collectHist(r.Histogram("read.lat.hist", LatBounds()), &m.ReadHist, readSum)
	collectHist(r.Histogram("write.lat.hist", LatBounds()), &m.WriteHist, writeSum)
}

// collectHist adds a stats.LatHist, whose latencies sum to sum, into a
// registry histogram created with LatBounds.
func collectHist(h *Histogram, lh *stats.LatHist, sum sim.Time) {
	for i := 0; i < stats.NumLatBuckets && i < len(h.counts); i++ {
		h.counts[i].Add(lh[i])
	}
	h.n.Add(lh.Total())
	h.sum.Add(uint64(sum))
}

// WriteJSON renders every shown series as a deterministic JSON document. An
// unlabelled series is keyed by its family name, a labelled one by the
// name and its label set in Prometheus syntax.
func (r *Registry) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"metrics":{`)
	sep := ""
	for _, f := range r.families() {
		if !f.shown() {
			continue
		}
		rows, ss := f.rows()
		for i, row := range rows {
			bw.WriteString(sep + string(jsonwire.AppendString(nil, f.name+promLabels(f.Labels, row, "", ""))) + ":")
			sep = ","
			switch s := ss[i]; {
			case s != nil && s.h != nil:
				_, counts := s.h.Buckets()
				fmt.Fprintf(bw, `{"count":%d,"sum":%d,"buckets":[`, s.h.Count(), s.h.Sum())
				for j, c := range counts {
					if j > 0 {
						bw.WriteByte(',')
					}
					fmt.Fprintf(bw, "%d", c)
				}
				bw.WriteString("]}")
			case s != nil && s.c != nil:
				fmt.Fprintf(bw, "%d", s.c.Value())
			default:
				fmt.Fprintf(bw, "%g", f.value(row, s))
			}
		}
	}
	bw.WriteString("}}\n")
	return bw.Flush()
}

// WritePrometheus renders every shown family in registration order, as
// Prometheus text exposition (version 0.0.4; svclog.ParsePromText is the
// strict reader): # HELP and # TYPE once, then one sample per row. A
// histogram renders cumulative _bucket samples (le = each bound, then
// "+Inf"), _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.families() {
		if !f.shown() {
			continue
		}
		bw.WriteString("# HELP " + f.name + " " + escapeHelp(f.Help) + "\n# TYPE " + f.name + " " + f.typ + "\n")
		rows, ss := f.rows()
		for i, row := range rows {
			labels := promLabels(f.Labels, row, "", "")
			if f.typ != "histogram" {
				bw.WriteString(f.name + labels + " " + formatFloat(f.value(row, ss[i])) + "\n")
				continue
			}
			bounds, counts := ss[i].h.Buckets()
			var cum uint64
			for j, c := range counts {
				cum += c
				le := "+Inf"
				if j < len(bounds) {
					le = strconv.FormatUint(uint64(bounds[j]), 10)
				}
				bw.WriteString(f.name + "_bucket" + promLabels(f.Labels, row, "le", le) + " " + formatFloat(float64(cum)) + "\n")
			}
			bw.WriteString(f.name + "_sum" + labels + " " + formatFloat(float64(ss[i].h.Sum())) + "\n")
			bw.WriteString(f.name + "_count" + labels + " " + formatFloat(float64(cum)) + "\n")
		}
	}
	return bw.Flush()
}

// promLabels renders a label set, {k="v",...} with values escaped, plus an
// optional trailing pair (a histogram's le); "" when there are none.
func promLabels(names, values []string, extraK, extraV string) string {
	if extraK != "" {
		names, values = append(names[:len(names):len(names)], extraK), append(values[:len(values):len(values)], extraV)
	}
	if len(names) == 0 {
		return ""
	}
	pairs := make([]string, len(names))
	for i, k := range names {
		pairs[i] = k + `="` + labelEscaper.Replace(values[i]) + `"`
	}
	return "{" + strings.Join(pairs, ",") + "}"
}

var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

func escapeHelp(v string) string { return helpEscaper.Replace(v) }

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
