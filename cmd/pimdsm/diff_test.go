package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pimdsm"
)

// TestAnalyzeProm: `pimdsm analyze` on a Prometheus text exposition (as
// scraped from /metrics.prom) validates it strictly and prints the family
// table; a malformed exposition exits 1.
func TestAnalyzeProm(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "scrape.prom")
	exposition := strings.Join([]string{
		"# HELP aggsimd_jobs_submitted_total Jobs accepted.",
		"# TYPE aggsimd_jobs_submitted_total counter",
		"aggsimd_jobs_submitted_total 5",
		"# TYPE aggsimd_queue_depth gauge",
		`aggsimd_queue_depth{pool="default"} 2`,
		"# TYPE aggsimd_job_wall_seconds histogram",
		`aggsimd_job_wall_seconds_bucket{le="1"} 3`,
		`aggsimd_job_wall_seconds_bucket{le="+Inf"} 5`,
		"aggsimd_job_wall_seconds_sum 6.5",
		"aggsimd_job_wall_seconds_count 5",
		"",
	}, "\n")
	if err := os.WriteFile(good, []byte(exposition), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := capture(t, func() int { return realMain([]string{"analyze", good}) })
	if code != 0 {
		t.Fatalf("analyze .prom exited %d:\n%s", code, out)
	}
	for _, want := range []string{"3 metric families", "aggsimd_jobs_submitted_total", "pool=default", "histogram", "p99 <=+Inf"} {
		if !strings.Contains(out, want) {
			t.Errorf("analyze .prom output missing %q:\n%s", want, out)
		}
	}

	// A sample without its # TYPE declaration is corrupt: exit 1, exactly
	// like a corrupt metrics JSON or span file.
	bad := filepath.Join(dir, "bad.prom")
	if err := os.WriteFile(bad, []byte("# comment\norphan_metric 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _ := capture(t, func() int { return realMain([]string{"analyze", bad}) }); code != 1 {
		t.Errorf("analyze corrupt .prom exited %d, want 1", code)
	}
	// Comments only — no families — is not a healthy scrape either.
	empty := filepath.Join(dir, "empty.prom")
	if err := os.WriteFile(empty, []byte("# just a comment\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _ := capture(t, func() int { return realMain([]string{"analyze", empty}) }); code != 1 {
		t.Errorf("analyze family-less .prom exited %d, want 1", code)
	}
}

// benchFile writes a minimal BENCH snapshot and returns its path.
func benchFile(t *testing.T, dir, date string, cyclesPerSec float64) string {
	t.Helper()
	doc := map[string]any{
		"date": date, "go": "go1.23", "cpus": 8, "scale": 0.1, "threads": 16,
		"runs": []map[string]any{
			{"arch": "agg", "app": "fft", "wall_ms": 100.0, "exec_cycles": 1000000, "cycles_per_sec": cyclesPerSec},
		},
	}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "BENCH_"+date+".json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDiffBench: `pimdsm diff -bench` renders the throughput trajectory over
// two snapshots, flags a drop beyond the threshold, stays advisory (exit 0)
// about the regression itself, and fails loudly (exit 1) on a malformed
// snapshot.
func TestDiffBench(t *testing.T) {
	dir := t.TempDir()
	older := benchFile(t, dir, "2026-08-01", 2.0e9)
	newer := benchFile(t, dir, "2026-08-07", 1.0e9) // a 50% throughput drop

	code, out := capture(t, func() int { return realMain([]string{"diff", "-bench", older, newer}) })
	if code != 0 {
		t.Fatalf("diff -bench exited %d:\n%s", code, out)
	}
	for _, want := range []string{"bench timeline", "agg", "fft", "REGRESSED", "advisory"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff -bench output missing %q:\n%s", want, out)
		}
	}
	// The typed JSON report round-trips.
	code, out = capture(t, func() int { return realMain([]string{"diff", "-bench", "-json", older, newer}) })
	if code != 0 {
		t.Fatalf("diff -bench -json exited %d:\n%s", code, out)
	}
	var rep pimdsm.TimelineReport
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("diff -bench -json output is not a TimelineReport: %v\n%s", err, out)
	}
	if len(rep.Regressions) != 1 || len(rep.Series) != 1 {
		t.Fatalf("report: %+v, want 1 series with 1 regression", rep)
	}
	// Raising the threshold above the drop un-flags it.
	code, out = capture(t, func() int { return realMain([]string{"diff", "-bench", "-threshold", "0.9", older, newer}) })
	if code != 0 || strings.Contains(out, "REGRESSED") {
		t.Fatalf("diff -bench -threshold 0.9 exited %d:\n%s", code, out)
	}

	// Malformed snapshots are exit 1; wrong operand counts are usage (2).
	corrupt := filepath.Join(dir, "BENCH_corrupt.json")
	if err := os.WriteFile(corrupt, []byte(`{"date":""}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _ := capture(t, func() int { return realMain([]string{"diff", "-bench", older, corrupt}) }); code != 1 {
		t.Errorf("diff -bench with a corrupt snapshot exited %d, want 1", code)
	}
	if code, _ := capture(t, func() int { return realMain([]string{"diff", "-bench", older}) }); code != 2 {
		t.Errorf("diff -bench with one operand exited %d, want 2", code)
	}
	if code, _ := capture(t, func() int { return realMain([]string{"diff"}) }); code != 2 {
		t.Errorf("diff with no operands exited %d, want 2", code)
	}
}

// TestDiffJobs drives `pimdsm diff <jobA> <jobB>` against a live in-process
// service: two telemetry jobs on different architectures diff into a report
// that names the dominant phase; a job without flight-recorder artifacts is
// an actionable error.
func TestDiffJobs(t *testing.T) {
	srv, err := pimdsm.NewServer(pimdsm.ServerOptions{Slots: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	addr, closeHTTP, err := pimdsm.NewServiceAPI(srv, nil).ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		closeHTTP()
		srv.Shutdown(context.Background())
	}()
	c := pimdsm.NewServiceClient(addr)

	submit := func(spec pimdsm.JobSpec) string {
		st, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		fin, err := c.Wait(ctx, st.ID, 20*time.Millisecond)
		if err != nil || fin.State != pimdsm.JobDone {
			t.Fatalf("job %s: %+v, %v", st.ID, fin, err)
		}
		return st.ID
	}
	idA := submit(pimdsm.JobSpec{Telemetry: true, Configs: []pimdsm.ConfigSpec{
		{Arch: "agg", App: "fft", Scale: 0.02, Threads: 4, Pressure: 0.75, DRatio: 1}}})
	idB := submit(pimdsm.JobSpec{Telemetry: true, Configs: []pimdsm.ConfigSpec{
		{Arch: "numa", App: "fft", Scale: 0.02, Threads: 4, Pressure: 0.75}}})

	code, out := capture(t, func() int { return realMain([]string{"diff", "-addr", addr, idA, idB}) })
	if code != 0 {
		t.Fatalf("diff exited %d:\n%s", code, out)
	}
	for _, want := range []string{"perf diff: " + idA + " -> " + idB, "phase decomposition", "dominant"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
	code, out = capture(t, func() int { return realMain([]string{"diff", "-addr", addr, "-json", idA, idB}) })
	if code != 0 {
		t.Fatalf("diff -json exited %d:\n%s", code, out)
	}
	var rep pimdsm.CompareReport
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("diff -json output is not a CompareReport: %v\n%s", err, out)
	}
	if rep.DominantPhase == "" || rep.Verdict == "" {
		t.Fatalf("diff of agg vs numa named no dominant phase: %+v", rep)
	}

	// A plain job has no flight record: the diff fails with the hint.
	idPlain := submit(pimdsm.JobSpec{Configs: []pimdsm.ConfigSpec{
		{Arch: "agg", App: "radix", Scale: 0.02, Threads: 4, Pressure: 0.75, DRatio: 1}}})
	if code, _ := capture(t, func() int { return realMain([]string{"diff", "-addr", addr, idA, idPlain}) }); code != 1 {
		t.Errorf("diff with a telemetry-less job exited %d, want 1", code)
	}
}
