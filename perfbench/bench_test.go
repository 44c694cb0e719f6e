package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"pimdsm"
)

// smallRun executes a minimal-size run from the repository root.
func smallRun(t *testing.T, workload string, seed int64, trace bool, ref string) *outcome {
	t.Helper()
	p := params{workload: workload, seed: seed, seconds: 1, trace: trace, small: true,
		root: "..", refPath: ref, outDir: t.TempDir()}
	if ref == "" {
		p.refPath = "reference.json"
	}
	o, err := execute(p)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return o
}

func metricNames(t *testing.T, o *outcome, traced bool) []string {
	t.Helper()
	rep, err := o.report(traced)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for name := range rep.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// TestWorkloadsReportEveryMetric runs each workload at minimal size, once
// untraced and once traced with another seed: both must pass every check,
// report exactly the metrics BENCHMARK.json names, and agree exactly on the
// model.* counters.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	want := func(defs []struct{ Name, Unit string }, table []metricDef) []string {
		var names []string
		for i, d := range defs {
			if i >= len(table) || table[i] != (metricDef{d.Name, d.Unit}) {
				t.Errorf("BENCHMARK.json metric %d is %s (%s); the code reports %v", i, d.Name, d.Unit, table[min(i, len(table)-1)])
			}
			names = append(names, d.Name)
		}
		slices.Sort(names)
		return names
	}
	e2e, layer := want(bench.EndToEnd, endToEnd), want(bench.PerLayer, perLayer)
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the code %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			plain := smallRun(t, w.Name, 1, false, "")
			traced := smallRun(t, w.Name, 2, true, "")
			for _, o := range []*outcome{plain, traced} {
				if o.failed != 0 || o.broken || o.attempted == 0 {
					t.Errorf("attempted %d failed %d broken %v: %v", o.attempted, o.failed, o.broken, o.problems)
				}
			}
			if got := metricNames(t, plain, false); !slices.Equal(got, e2e) {
				t.Errorf("untraced metrics %v, want %v", got, e2e)
			}
			if got := metricNames(t, traced, true); !slices.Equal(got, layer) {
				t.Errorf("traced metrics %v, want %v", got, layer)
			}
			for _, name := range modelNames {
				if plain.layer[name] != traced.layer[name] {
					t.Errorf("%s: untraced seed 1 %v, traced seed 2 %v", name, plain.layer[name], traced.layer[name])
				}
			}
			if plain.layer["model.exec_cycles"] == 0 {
				t.Error("model.exec_cycles is 0")
			}
			for name, v := range plain.e2e {
				if v <= 0 {
					t.Errorf("%s = %v, want > 0", name, v)
				}
			}
			if len(traced.spans) == 0 || len(traced.profile) == 0 {
				t.Errorf("traced run recorded %d spans and a %d-byte profile", len(traced.spans), len(traced.profile))
			}
		})
	}
}

// TestCorruptReferenceFailsOps proves the sim-* output check can fail: with
// every reference entry off by one cycle, every checked run is a failed op.
func TestCorruptReferenceFailsOps(t *testing.T) {
	ref, err := loadReference("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	for k, e := range ref {
		e.ExecCycles++
		ref[k] = e
	}
	data, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corrupt.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	o := smallRun(t, "sim-private", 1, false, path)
	if o.attempted == 0 || o.failed != o.attempted {
		t.Fatalf("attempted %d, failed %d; want every op failed", o.attempted, o.failed)
	}
	if rep, err := o.report(false); err != nil || rep.Correct {
		t.Fatalf("report correct=%v err=%v, want incorrect", rep.Correct, err)
	}
}

// TestVerifyRejectsWrongBytes proves the svc-hit check can fail.
func TestVerifyRejectsWrongBytes(t *testing.T) {
	want := [][]byte{[]byte(`{"a":1}`), []byte(`{"b":2}`)}
	job := pimdsm.JobStatus{ID: "j-1", Total: 2, CacheHits: 2}
	good := []json.RawMessage{want[0], want[1]}
	if err := verify(job, good, want, true); err != nil {
		t.Fatalf("matching bytes rejected: %v", err)
	}
	bad := []json.RawMessage{want[0], []byte(`{"b":3}`)}
	if err := verify(job, bad, want, true); err == nil {
		t.Error("changed bytes accepted")
	}
	if err := verify(job, good[:1], want, true); err == nil {
		t.Error("missing result accepted")
	}
	job.CacheHits = 1
	if err := verify(job, good, want, true); err == nil {
		t.Error("cache miss accepted on the hit path")
	}
}

// spin burns CPU in this package, checking the clock only rarely.
//
//go:noinline
func spin(d time.Duration) uint64 {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for range 1 << 20 {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestCPUProfileBuckets decodes a real CPU profile and finds the harness's
// own busy loop under "bench".
func TestCPUProfileBuckets(t *testing.T) {
	prof, err := startCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	spin(400 * time.Millisecond)
	data, err := prof.stop()
	if err != nil {
		t.Fatal(err)
	}
	got, err := cpuByBucket(data, svcBucket)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ns := range got {
		total += ns
	}
	if got["bench"] == 0 || total < int64(100*time.Millisecond) {
		t.Fatalf("buckets %v: want most of 400ms under bench", got)
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"pimdsm/internal/sim.(*Resource).Acquire":                    "pimdsm/internal/sim",
		"pimdsm/internal/hashmap.(*Map[pimdsm/internal/core.x]).Get": "pimdsm/internal/hashmap",
		"encoding/json.(*encodeState).marshal":                       "encoding/json",
		"runtime.mallocgc":                                           "runtime",
		"main.(*jobWatch).dispatch":                                  "main",
		"internal/runtime/syscall.Syscall6":                          "internal/runtime/syscall",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60}, // overlaps a
		{Name: "c", Parent: 1, Start: 15, End: 20},
	}
	setSelfTimes(spans)
	for i, want := range []int64{50, 25, 30, 5} {
		if spans[i].Self != want {
			t.Errorf("%s self = %d, want %d", spans[i].Name, spans[i].Self, want)
		}
	}
}
