package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pimdsm"
	"pimdsm/internal/obs/svclog"
)

const (
	quietKey = "quiet-key-000001"
	noisyKey = "noisy-key-000001"
)

// writeTenantsFile declares a permissive quiet tenant and a noisy tenant
// pinned to one job in flight at a time.
func writeTenantsFile(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "tenants.json")
	body := fmt.Sprintf(`{"tenants": [
		{"name": "quiet", "key": %q, "max_priority": 5},
		{"name": "noisy", "key": %q, "max_queued": 1, "max_active": 1}
	]}`, quietKey, noisyKey)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func tenantClient(addr, key string) *pimdsm.ServiceClient {
	c := pimdsm.NewServiceClient(addr)
	c.APIKey = key
	return c
}

// promCounter sums every sample of one family (all label combinations).
func promCounter(t *testing.T, fams map[string]*svclog.PromFamily, name string) float64 {
	t.Helper()
	fam := fams[name]
	if fam == nil {
		t.Fatalf("family %s missing from exposition", name)
	}
	var sum float64
	for _, s := range fam.Samples {
		sum += s.Value
	}
	return sum
}

// TestTenantSmoke is the `make tenant-smoke` body: the multi-tenant service
// edge end to end through a real daemon — auth rejection, quota isolation
// between a noisy and a quiet tenant (including under the soak harness),
// per-tenant metrics summing exactly to the global counters under the strict
// Prometheus parser, cross-tenant byte-identical cache serving, and a usage
// ledger that survives a daemon restart.
func TestTenantSmoke(t *testing.T) {
	tmp := t.TempDir()
	tenantsFile := writeTenantsFile(t, tmp)
	usageFile := filepath.Join(tmp, "aggsimd.usage")
	flags := []string{
		"-addr", "127.0.0.1:0",
		"-slots", "1",
		"-queue", "8",
		"-tenants-file", tenantsFile,
		"-usage-file", usageFile,
		"-log", "off",
	}
	d := startDaemon(t, flags...)
	quiet := tenantClient(d.addr, quietKey)
	noisy := tenantClient(d.addr, noisyKey)

	// 1. Authentication: anonymous and wrong-key requests bounce with 401
	// before touching the job table; /healthz and /metrics.prom stay open.
	for _, key := range []string{"", "wrong-key-000001"} {
		req, _ := http.NewRequest("GET", "http://"+d.addr+"/api/v1/jobs", nil)
		if key != "" {
			req.Header.Set("Authorization", "Bearer "+key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("key %q: %d, want 401", key, resp.StatusCode)
		}
		if resp.Header.Get("X-Request-Id") == "" {
			t.Fatal("401 response lost its request id")
		}
	}
	// SubmitRetry must not retry an auth failure.
	bad := tenantClient(d.addr, "wrong-key-000001")
	if _, retries, err := bad.SubmitRetry(context.Background(), pimdsm.JobSpec{
		Configs: pimdsm.Figure6Specs("fft", 4, 0.02),
	}, 5, 0); err == nil || retries != 0 {
		t.Fatalf("401 SubmitRetry: err=%v retries=%d, want error with 0 retries", err, retries)
	}

	// 2. The quiet tenant simulates a real batch; every surface attributes
	// it: job status, lifecycle events.
	fig6 := pimdsm.JobSpec{Name: "fig6-fft", Configs: pimdsm.Figure6Specs("fft", 4, 0.02)}
	n := len(fig6.Configs)
	first, err := quiet.Submit(fig6)
	if err != nil {
		t.Fatal(err)
	}
	fin := wait(t, quiet, first.ID)
	if fin.State != pimdsm.JobDone || fin.Simulated != n || fin.Tenant != "quiet" {
		t.Fatalf("quiet batch: %+v, want %d simulated with tenant=quiet", fin, n)
	}
	_, quietRaw, err := quiet.Result(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	events, err := quiet.JobEvents(first.ID)
	if err != nil || len(events) == 0 {
		t.Fatalf("quiet job events: %d, %v", len(events), err)
	}
	for _, ev := range events {
		if ev.Tenant != "quiet" {
			t.Fatalf("event %d (%s) tenant = %q, want quiet", ev.Seq, ev.Kind, ev.Tenant)
		}
	}
	// The SSE stream's ?tenant= filter replays only quiet's events.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	streamed := 0
	_, serr := quiet.StreamEvents(ctx, 0, "", "quiet", func(ev pimdsm.JobEvent) {
		streamed++
		if ev.Tenant != "quiet" {
			t.Errorf("tenant-filtered stream leaked event for %q", ev.Tenant)
		}
		if streamed >= len(events) {
			cancel()
		}
	})
	cancel()
	if streamed < len(events) && !errors.Is(serr, context.Canceled) && !errors.Is(serr, context.DeadlineExceeded) {
		t.Fatalf("tenant-filtered stream: %d events, %v", streamed, serr)
	}

	// 3. Authorization: the noisy tenant's priority ceiling is 0.
	over := fig6
	over.Priority = 1
	if _, err := noisy.Submit(over); err == nil {
		t.Fatal("over-ceiling priority accepted")
	}

	// 4. Quota isolation: a long blocker pins noisy's MaxActive=1 quota, so
	// noisy's next submission bounces with a per-tenant 429 — while the
	// quiet tenant keeps submitting freely past it.
	var blockerCfgs []pimdsm.ConfigSpec
	for p := 0; p < 6; p++ {
		blockerCfgs = append(blockerCfgs, pimdsm.ConfigSpec{
			Arch: "agg", App: "ocean", Scale: 0.5, Threads: 16,
			Pressure: 0.30 + 0.04*float64(p), DRatio: 1,
		})
	}
	blocker, err := noisy.Submit(pimdsm.JobSpec{Name: "noisy-blocker", Configs: blockerCfgs})
	if err != nil {
		t.Fatal(err)
	}
	_, err = noisy.Submit(pimdsm.JobSpec{Name: "noisy-extra", Configs: []pimdsm.ConfigSpec{{
		Arch: "agg", App: "ocean", Scale: 0.1, Threads: 8, Pressure: 0.9, DRatio: 1,
	}}})
	var be *pimdsm.BusyError
	if !errors.As(err, &be) || be.Tenant != "noisy" || be.RetryAfter < time.Second {
		t.Fatalf("noisy over quota: %v, want a per-tenant BusyError with Retry-After", err)
	}
	quietSingle, err := quiet.Submit(pimdsm.JobSpec{Name: "quiet-single", Configs: []pimdsm.ConfigSpec{{
		Arch: "numa", App: "fft", Scale: 0.02, Threads: 4, Pressure: 0.75,
	}}})
	if err != nil {
		t.Fatalf("quiet tenant blocked by noisy's quota: %v", err)
	}
	wait(t, quiet, blocker.ID)
	wait(t, quiet, quietSingle.ID)

	// 5. Cross-tenant cache: noisy resubmits quiet's batch and is served the
	// identical bytes from cache, billed to noisy as hits.
	resub, err := noisy.Submit(fig6)
	if err != nil {
		t.Fatal(err)
	}
	if st := wait(t, noisy, resub.ID); st.CacheHits != n || st.Simulated != 0 || st.Tenant != "noisy" {
		t.Fatalf("noisy resubmission: %+v, want %d cache hits for tenant=noisy", st, n)
	}
	_, noisyRaw, err := noisy.Result(resub.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i := range quietRaw {
		if !bytes.Equal(quietRaw[i], noisyRaw[i]) {
			t.Fatalf("config %d: cache served a different byte stream across tenants", i)
		}
	}

	// 6. The multi-tenant soak: quiet's submit SLO must hold while noisy
	// storms its one-job quota and absorbs bounded 429 pushback.
	batch := pimdsm.Figure6Specs("radix", 4, 0.02)
	specs := []pimdsm.JobSpec{{Configs: batch}}
	for _, cs := range batch {
		specs = append(specs, pimdsm.JobSpec{Configs: []pimdsm.ConfigSpec{cs}})
	}
	rep, err := pimdsm.RunSoak(d.addr, pimdsm.SoakOptions{
		Clients:         2,
		JobsPerClient:   2,
		Specs:           specs,
		SubmitSLO:       5 * time.Second,
		StatusSLO:       5 * time.Second,
		Wait:            90 * time.Second,
		APIKey:          quietKey,
		NoisyKey:        noisyKey,
		NoisyJobs:       6,
		RequireThrottle: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + rep.Summary())
	if !rep.OK() {
		t.Fatalf("soak violations:\n%s", rep.Summary())
	}
	if rep.NoisyThrottled+rep.NoisyRejected == 0 {
		t.Fatal("noisy tenant was never throttled")
	}

	// 7. Per-tenant metrics: the exposition passes the strict parser, and
	// every per-tenant family sums exactly to its global counterpart — all
	// traffic was authenticated, so nothing may fall outside the tenant
	// label dimension.
	resp, err := http.Get("http://" + d.addr + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	var promBuf bytes.Buffer
	if _, err := promBuf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	fams, err := svclog.ParsePromText(promBuf.String())
	if err != nil {
		t.Fatalf("/metrics.prom does not parse strictly: %v", err)
	}
	for tenantFam, globalFam := range map[string]string{
		"aggsimd_tenant_jobs_submitted_total":   "aggsimd_jobs_submitted_total",
		"aggsimd_tenant_jobs_done_total":        "aggsimd_jobs_done_total",
		"aggsimd_tenant_jobs_failed_total":      "aggsimd_jobs_failed_total",
		"aggsimd_tenant_jobs_aborted_total":     "aggsimd_jobs_aborted_total",
		"aggsimd_tenant_rejected_total":         "aggsimd_jobs_rejected_total",
		"aggsimd_tenant_cache_hits_total":       "aggsimd_cache_hits_total",
		"aggsimd_tenant_cache_misses_total":     "aggsimd_cache_misses_total",
		"aggsimd_tenant_cache_joins_total":      "aggsimd_cache_joins_total",
		"aggsimd_tenant_simulated_runs_total":   "aggsimd_simulated_runs_total",
		"aggsimd_tenant_simulated_cycles_total": "aggsimd_simulated_cycles_total",
	} {
		ts, gs := promCounter(t, fams, tenantFam), promCounter(t, fams, globalFam)
		if ts != gs {
			t.Errorf("%s sums to %v, global %s is %v", tenantFam, ts, globalFam, gs)
		}
	}
	for _, s := range fams["aggsimd_tenant_rejected_total"].Samples {
		switch s.Labels["reason"] {
		case "rate", "queue_quota", "concurrency_quota", "window":
		default:
			t.Errorf("unknown rejection reason label %q", s.Labels["reason"])
		}
	}

	// 8. The usage ledger survives a restart: totals carry over, process
	// usage starts at zero.
	beforeQuiet, err := quiet.Usage("quiet")
	if err != nil {
		t.Fatal(err)
	}
	beforeNoisy, err := quiet.Usage("noisy")
	if err != nil {
		t.Fatal(err)
	}
	if beforeNoisy.Usage.CacheHits < uint64(n) {
		t.Fatalf("noisy cache hits = %d, want at least %d from the resubmission", beforeNoisy.Usage.CacheHits, n)
	}
	d.shutdown(t)
	if _, err := os.Stat(usageFile); err != nil {
		t.Fatalf("usage ledger not persisted: %v", err)
	}

	d2 := startDaemon(t, flags...)
	quiet2 := tenantClient(d2.addr, quietKey)
	afterQuiet, err := quiet2.Usage("quiet")
	if err != nil {
		t.Fatal(err)
	}
	if afterQuiet.Usage.JobsDone != 0 {
		t.Fatalf("restart leaked ledger into process usage: %+v", afterQuiet.Usage)
	}
	if afterQuiet.Total.JobsDone < beforeQuiet.Total.JobsDone ||
		afterQuiet.Total.EngineCycles < beforeQuiet.Total.EngineCycles {
		t.Fatalf("ledger lost across restart:\nbefore %+v\nafter  %+v", beforeQuiet.Total, afterQuiet.Total)
	}
	d2.shutdown(t)
}

// TestTenantFlagHygiene: startup flag validation fails fast with nonzero
// exits instead of silently degrading (an unknown log level falling back to
// info, or a broken tenants file running the daemon open).
func TestTenantFlagHygiene(t *testing.T) {
	run := func(args ...string) (int, string) {
		t.Helper()
		var logs bytes.Buffer
		stop := make(chan os.Signal, 1)
		code := realMain(args, &logs, stop)
		return code, logs.String()
	}

	if code, out := run("-log-level", "loud"); code == 0 {
		t.Fatalf("unknown -log-level accepted (exit 0):\n%s", out)
	}
	if code, out := run("-tenants-file", filepath.Join(t.TempDir(), "missing.json")); code == 0 {
		t.Fatalf("missing -tenants-file accepted (exit 0):\n%s", out)
	}
	dir := t.TempDir()
	corrupt := filepath.Join(dir, "tenants.json")
	os.WriteFile(corrupt, []byte("{not json"), 0o644)
	if code, out := run("-tenants-file", corrupt); code == 0 {
		t.Fatalf("corrupt -tenants-file accepted (exit 0):\n%s", out)
	}
	shortKey := filepath.Join(dir, "short.json")
	os.WriteFile(shortKey, []byte(`{"tenants":[{"name":"a","key":"short"}]}`), 0o644)
	if code, out := run("-tenants-file", shortKey); code == 0 {
		t.Fatalf("short tenant key accepted (exit 0):\n%s", out)
	}
	if code, out := run("-usage-file", filepath.Join(dir, "usage.json")); code == 0 {
		t.Fatalf("-usage-file without -tenants-file accepted (exit 0):\n%s", out)
	}
}
