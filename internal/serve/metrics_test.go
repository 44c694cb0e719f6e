package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pimdsm/internal/cluster"
	"pimdsm/internal/obs/svclog"
	"pimdsm/internal/stats"
)

// tenantGlobals pairs every per-tenant family that has a global with it.
var tenantGlobals = map[string]string{
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
}

// scrape fetches and strictly parses a server's /metrics.prom.
func scrape(t *testing.T, s *Server) map[string]*svclog.PromFamily {
	t.Helper()
	rec := httptest.NewRecorder()
	NewAPI(s, nil).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics.prom", nil))
	fams, err := svclog.ParsePromText(rec.Body.String())
	if err != nil {
		t.Fatalf("/metrics.prom does not parse: %v\n%s", err, rec.Body.String())
	}
	return fams
}

// checkTenantSums asserts every per-tenant family sums to its global.
func checkTenantSums(t *testing.T, fams map[string]*svclog.PromFamily) {
	t.Helper()
	sum := func(name string) float64 {
		fam := fams[name]
		if fam == nil {
			t.Fatalf("family %s missing", name)
		}
		var v float64
		for _, s := range fam.Samples {
			v += s.Value
		}
		return v
	}
	for tf, gf := range tenantGlobals {
		if ts, gs := sum(tf), sum(gf); ts != gs {
			t.Errorf("%s sums to %v, global %s is %v", tf, ts, gf, gs)
		}
	}
}

// TestTenantFamiliesSumToGlobals drives two tenants through every rejection
// gate (rate, queue quota, shared window, draining) and every result path
// (miss, hit, join, failure, shutdown abort), with a tenants-file reload in
// the middle, and requires each per-tenant family to sum to its global and
// the usage views to read the same counts.
func TestTenantFamiliesSumToGlobals(t *testing.T) {
	gr := &goldenRunner{}
	reg, err := NewTenants([]Tenant{
		{Name: "a", Key: "key-aaaaaaaa", MaxQueued: 2},
		{Name: "b", Key: "key-bbbbbbbb", RatePerSec: 0.001, Burst: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Slots: 2, QueueLimit: 3, Run: gr.run, Tenants: reg})
	if err != nil {
		t.Fatal(err)
	}
	g := &goldenScript{t: t, srv: s}
	// submit returns the job id; want is "" for admission, else the
	// BusyError reason or "draining".
	submit := func(tenant string, spec JobSpec, want string) string {
		t.Helper()
		spec.Tenant = tenant
		st, err := s.Submit(spec)
		got := ""
		var be *BusyError
		switch {
		case err == ErrDraining:
			got = "draining"
		case errors.As(err, &be):
			got = be.Reason
		case err != nil:
			got = err.Error()
		}
		if got != want {
			t.Fatalf("%s by %s: got %q, want %q", spec.Name, tenant, got, want)
		}
		return st.ID
	}

	g.wait(submit("a", goldenSpec("miss", "fft"), ""))
	g.wait(submit("b", goldenSpec("hit", "fft"), ""))
	g.wait(submit("a", goldenSpec("broken", "fail"), ""))

	gr.hold()
	owner := submit("a", goldenSpec("owner", "barnes"), "")
	g.until("owner running", func(st ServerStats) bool { return st.Running == 1 })
	joiner := submit("b", goldenSpec("joiner", "barnes"), "")
	g.until("join", func(st ServerStats) bool { return st.Cache.Joins == 1 })
	gr.release()
	g.wait(owner)
	g.wait(joiner)

	gr.hold()
	submit("a", goldenSpec("busy-1", "lu"), "")
	g.until("busy-1 running", func(st ServerStats) bool { return st.Running == 1 })
	submit("a", goldenSpec("busy-2", "ocean"), "")
	g.until("both running", func(st ServerStats) bool { return st.Running == 2 })
	submit("b", goldenSpec("queued-b", "radix"), "") // b's last token
	submit("b", goldenSpec("rate", "radix"), RejectRate)
	submit("a", goldenSpec("queued-a1", "water"), "")
	submit("a", goldenSpec("queued-a2", "mp3d"), "")
	submit("a", goldenSpec("quota", "dbase"), RejectQueueQuota)

	// Lifting a's quota lets its next submission reach the full window. The
	// reload touches no usage: that lives in the server's registry.
	before, _ := s.tenantSnapshot("a")
	if err := reg.Reload([]Tenant{
		{Name: "a", Key: "key-aaaaaaaa"},
		{Name: "b", Key: "key-bbbbbbbb", RatePerSec: 0.001, Burst: 3},
	}); err != nil {
		t.Fatal(err)
	}
	if after, _ := s.tenantSnapshot("a"); after.Usage != before.Usage {
		t.Fatalf("reload changed a's usage:\nbefore %+v\nafter  %+v", before.Usage, after.Usage)
	}
	submit("a", goldenSpec("window", "dbase"), RejectWindow)

	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()
	g.until("drain", func(st ServerStats) bool { return st.Draining && st.JobsAborted == 3 })
	submit("a", goldenSpec("late", "dbase"), "draining")
	gr.release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	fams := scrape(t, s)
	checkTenantSums(t, fams)

	a, _ := s.tenantSnapshot("a")
	b, _ := s.tenantSnapshot("b")
	for _, c := range []struct {
		what      string
		got, want uint64
	}{
		{"a misses", a.Usage.CacheMisses, 5},
		{"a failed", a.Usage.JobsFailed, 1},
		{"a aborted", a.Usage.JobsAborted, 2},
		{"a queue-quota rejections", a.Usage.RejectedQueueQuota, 1},
		{"a window rejections (window + draining)", a.Usage.RejectedWindow, 2},
		{"b hits", b.Usage.CacheHits, 1},
		{"b joins", b.Usage.Joins, 1},
		{"b aborted", b.Usage.JobsAborted, 1},
		{"b rate rejections", b.Usage.RejectedRate, 1},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.what, c.got, c.want)
		}
	}
	st := s.Stats()
	if st.JobsRejected != a.Usage.Rejected()+b.Usage.Rejected() ||
		st.Cache.Misses != a.Usage.CacheMisses+b.Usage.CacheMisses ||
		st.JobsAborted != a.Usage.JobsAborted+b.Usage.JobsAborted {
		t.Errorf("/api/v1/stats disagrees with the usage views: %+v\na %+v\nb %+v", st, a.Usage, b.Usage)
	}
}

// TestReplicaRecoveryCountsTenantMiss: an owner that recovers a key from a
// replica instead of simulating it still missed its cache, and that miss
// belongs to the tenant whose job asked — the tenant family must sum to the
// global with the recovery in it.
func TestReplicaRecoveryCountsTenantMiss(t *testing.T) {
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrA, addrB := lnA.Addr().String(), lnB.Addr().String()
	gr := &goldenRunner{}
	start := func(ln net.Listener, self, peer string, tenants *Tenants) *Server {
		s, err := New(Options{Slots: 1, Run: gr.run, Tenants: tenants})
		if err != nil {
			t.Fatal(err)
		}
		node, err := cluster.New(cluster.Config{Name: "recover", Self: self, Seeds: []string{peer}, HeartbeatEvery: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		s.AttachCluster(node)
		stop := NewAPI(s, nil).Serve(ln)
		t.Cleanup(func() {
			stop()
			s.Shutdown(context.Background())
		})
		return s
	}
	reg, err := NewTenants([]Tenant{{Name: "a", Key: "key-aaaaaaaa"}, {Name: "b", Key: "key-bbbbbbbb"}})
	if err != nil {
		t.Fatal(err)
	}
	owner := start(lnA, addrA, addrB, reg)
	start(lnB, addrB, addrA, nil)

	// A config whose key the tenant-mode node owns; its one successor is
	// the other node, which holds a replica.
	var spec JobSpec
	for threads := 1; ; threads++ {
		spec = goldenSpec("recover", "fft")
		spec.Configs[0].Threads = threads
		if _, self := owner.clusterNode().Owner(spec.Configs[0].Key(0)); self {
			break
		}
	}
	cs := spec.Configs[0]
	res, _ := gr.run(cs.canonical().Config())
	res.PerThread = make([]stats.Thread, res.Threads)
	js, _ := canonicalResultJSON(res)
	body, _ := json.Marshal(indexEntry{Key: keyHex(cs.Key(0)), Spec: cs.canonical(), Result: js})
	req, _ := http.NewRequest("POST", "http://"+addrB+"/api/v1/cluster/replicate", bytes.NewReader(body))
	req.Header.Set(clusterHeader, "recover")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("replicate: HTTP %d", resp.StatusCode)
	}

	spec.Tenant = "a"
	st, err := owner.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitJob(t, owner, st.ID)
	if fin.State != JobDone || fin.Forwarded != 1 || fin.Simulated != 0 {
		t.Fatalf("job was not served by replica recovery: %+v", fin)
	}
	if got := owner.Stats().Cluster.Recoveries; got != 1 {
		t.Fatalf("recoveries = %d, want 1", got)
	}
	checkTenantSums(t, scrape(t, owner))
}
