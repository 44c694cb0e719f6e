package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
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
	if v := r.Histogram("read.lat.hist", nil).Count(); v != 2 {
		t.Fatalf("read hist count = %d", v)
	}
	// Collecting a second run accumulates.
	CollectMachine(r, &m)
	if v := r.Counter("pageouts").Value(); v != 4 {
		t.Fatalf("pageouts after two collections = %d", v)
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
