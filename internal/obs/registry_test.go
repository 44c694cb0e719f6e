package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"sync"
	"testing"

	"pimdsm/internal/proto"
	"pimdsm/internal/sim"
	"pimdsm/internal/stats"
)

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	c.Inc()
	c.Add(4)
	if r.Counter("hits") != c || c.Value() != 5 {
		t.Fatalf("counter identity/value wrong: %d", c.Value())
	}
	g := r.Gauge("depth")
	g.Set(3.5)
	if r.Gauge("depth").Value() != 3.5 {
		t.Fatal("gauge value wrong")
	}
	h := r.Histogram("lat", []sim.Time{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)
	if h.Count() != 3 || h.Sum() != 5055 {
		t.Fatalf("histogram count=%d sum=%d", h.Count(), h.Sum())
	}
	_, counts := h.Buckets()
	if !reflect.DeepEqual(counts, []uint64{1, 1, 1}) {
		t.Fatalf("bucket counts = %v", counts)
	}
	if got := r.Names(); !reflect.DeepEqual(got, []string{"hits", "depth", "lat"}) {
		t.Fatalf("Names = %v, want registration order", got)
	}
}

func TestRegistryKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic reusing a counter name as a gauge")
		}
	}()
	r.Gauge("x")
}

func TestPow2Bounds(t *testing.T) {
	b := Pow2Bounds(4)
	if !reflect.DeepEqual(b, []sim.Time{1, 2, 4, 8}) {
		t.Fatalf("Pow2Bounds(4) = %v", b)
	}
}

func TestCollectMachine(t *testing.T) {
	var m stats.Machine
	m.Read(proto.LatMem, 57)
	m.Read(proto.Lat2Hop, 298)
	m.Write(proto.Lat2Hop, 310)
	m.Invalidations = 4
	m.Pageouts = 2

	r := NewRegistry()
	CollectMachine(r, &m)
	if v := r.Counter("read.count.Memory").Value(); v != 1 {
		t.Fatalf("read.count.Memory = %d", v)
	}
	if v := r.Counter("read.lat.2Hop").Value(); v != 298 {
		t.Fatalf("read.lat.2Hop = %d", v)
	}
	if v := r.Counter("invalidations").Value(); v != 4 {
		t.Fatalf("invalidations = %d", v)
	}
	h := r.Histogram("read.lat.hist", nil)
	if v := h.Count(); v != 2 {
		t.Fatalf("read hist count = %d", v)
	}
	// The histogram sum is the latency total the per-class counters carry,
	// and its buckets are the LatHist's own: an observed and a collected
	// latency land in the same bucket.
	if v := h.Sum(); v != 57+298 {
		t.Fatalf("read hist sum = %d, want %d", v, 57+298)
	}
	if v := r.Histogram("write.lat.hist", nil).Sum(); v != 310 {
		t.Fatalf("write hist sum = %d, want 310", v)
	}
	bounds, counts := h.Buckets()
	if !reflect.DeepEqual(bounds, LatBounds()) {
		t.Fatalf("read hist bounds = %v, want the LatHist edges %v", bounds, LatBounds())
	}
	direct := NewRegistry().Histogram("direct", LatBounds())
	direct.Observe(57)
	direct.Observe(298)
	if _, want := direct.Buckets(); !reflect.DeepEqual(counts, want) {
		t.Fatalf("collected buckets %v, observed buckets %v", counts, want)
	}
	var one stats.Machine
	one.Read(proto.LatL1, 1)
	r1 := NewRegistry()
	CollectMachine(r1, &one)
	if _, c := r1.Histogram("read.lat.hist", nil).Buckets(); c[1] != 1 {
		t.Fatalf("a collected latency of 1 is not in the le=1 bucket: %v", c)
	}
	// Collecting a second run accumulates.
	CollectMachine(r, &m)
	if v := r.Counter("pageouts").Value(); v != 4 {
		t.Fatalf("pageouts after two collections = %d", v)
	}
	if v := h.Sum(); v != 2*(57+298) {
		t.Fatalf("read hist sum after two collections = %d", v)
	}
}

// TestRegistryFamilies: labelled counters, declared rows, callbacks and the
// Show switch, as WritePrometheus and WriteJSON render them.
func TestRegistryFamilies(t *testing.T) {
	r := NewRegistry()
	shown := false
	tenants := [][]string{{"b"}, {"a"}}
	hits := r.CounterVec("hits_total", Opts{Help: "Hits.", Labels: []string{"tenant"},
		Rows: func() [][]string { return tenants }})
	r.CounterFunc("all_hits_total", Opts{Help: "All hits."}, func([]string) float64 { return float64(hits.Sum()) })
	r.GaugeFunc("hidden", Opts{Help: "Hidden.", Show: func() bool { return shown }}, func([]string) float64 { return 1 })
	codes := r.CounterVec("codes_total", Opts{Help: "Codes.", Labels: []string{"route", "code"}})

	hits.With("a").Add(2)
	hits.With("").Add(5) // counted, summed, never rendered as a row
	codes.With("GET /y", "500").Inc()
	codes.With("GET /x", "200").Add(3)
	if hits.With("b").Value() != 0 || hits.With("a").Value() != 2 || hits.Sum() != 7 {
		t.Fatalf("hits: b=%d a=%d sum=%d", hits.With("b").Value(), hits.With("a").Value(), hits.Sum())
	}
	if hits.With("a") != hits.With("a") {
		t.Fatal("With does not return the same series")
	}

	var prom bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	want := `# HELP hits_total Hits.
# TYPE hits_total counter
hits_total{tenant="b"} 0
hits_total{tenant="a"} 2
# HELP all_hits_total All hits.
# TYPE all_hits_total counter
all_hits_total 7
# HELP codes_total Codes.
# TYPE codes_total counter
codes_total{route="GET /x",code="200"} 3
codes_total{route="GET /y",code="500"} 1
`
	if prom.String() != want {
		t.Fatalf("WritePrometheus:\n%s\nwant:\n%s", prom.String(), want)
	}
	shown = true
	prom.Reset()
	r.WritePrometheus(&prom)
	if !bytes.Contains(prom.Bytes(), []byte("\nhidden 1\n")) {
		t.Fatalf("Show did not reveal the family:\n%s", prom.String())
	}
	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	const wantJSON = `{"metrics":{"hits_total{tenant=\"b\"}":0,"hits_total{tenant=\"a\"}":2,"all_hits_total":7,"hidden":1,` +
		`"codes_total{route=\"GET /x\",code=\"200\"}":3,"codes_total{route=\"GET /y\",code=\"500\"}":1}}` + "\n"
	if js.String() != wantJSON {
		t.Fatalf("WriteJSON:\n%s\nwant:\n%s", js.String(), wantJSON)
	}
}

// TestRegistryConcurrentRender counts from many goroutines, creating series
// as it goes, while both renderers run; under -race this is the registry's
// concurrency contract, and the final counts must be exact.
func TestRegistryConcurrentRender(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("c_total", Opts{Help: "C.", Labels: []string{"k"}})
	h := r.HistogramVec("h", LatBounds(), Opts{Help: "H.", Labels: []string{"k"}})
	g := r.Gauge("g")
	const workers, per = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := string(rune('a' + i%7))
				c.With(k).Inc()
				h.With(k).Observe(sim.Time(i))
				g.Set(float64(i))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			r.WritePrometheus(io.Discard)
			r.WriteJSON(io.Discard)
		}
	}()
	wg.Wait()
	<-done
	if got := c.Sum(); got != workers*per {
		t.Fatalf("counted %d, want %d", got, workers*per)
	}
	var n uint64
	for k := 'a'; k < 'a'+7; k++ {
		n += h.With(string(k)).Count()
	}
	if n != workers*per {
		t.Fatalf("observed %d, want %d", n, workers*per)
	}
}

func TestWriteJSONDeterministic(t *testing.T) {
	mk := func() *bytes.Buffer {
		r := NewRegistry()
		r.Counter("a").Add(1)
		r.Gauge("b").Set(2.5)
		r.Histogram("c", Pow2Bounds(3)).Observe(3)
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	first, second := mk(), mk()
	if first.String() != second.String() {
		t.Fatal("WriteJSON output not deterministic")
	}
	var doc map[string]interface{}
	if err := json.Unmarshal(first.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, first.String())
	}
	if _, ok := doc["metrics"]; !ok {
		t.Fatal("no metrics key")
	}
}

// TestRegistryCountZeroAlloc pins counting into existing series — the
// service's per-request path — at zero allocations.
func TestRegistryCountZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("c_total", Opts{Labels: []string{"route", "code"}})
	h := r.HistogramVec("h", LatBounds(), Opts{Labels: []string{"route"}})
	count := func() {
		c.With("GET /api/v1/jobs/{id}/result", "200").Inc()
		h.With("GET /api/v1/jobs/{id}/result").Observe(300)
	}
	count()
	if n := testing.AllocsPerRun(100, count); n != 0 {
		t.Fatalf("counting into existing series allocates %v times", n)
	}
}
