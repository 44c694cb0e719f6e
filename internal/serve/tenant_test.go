package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func twoTenants(t *testing.T, list []Tenant) *Tenants {
	t.Helper()
	reg, err := NewTenants(list)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// declared returns one tenant's declaration and live state.
func declared(t *testing.T, reg *Tenants, name string) TenantSnapshot {
	t.Helper()
	for _, snap := range reg.snapshot() {
		if snap.Name == name {
			return snap
		}
	}
	t.Fatalf("tenant %s not registered", name)
	return TenantSnapshot{}
}

func TestNewTenantsValidation(t *testing.T) {
	ok := Tenant{Name: "a", Key: "key-aaaaaaaa"}
	bad := []struct {
		name string
		list []Tenant
	}{
		{"empty name", []Tenant{{Key: "key-aaaaaaaa"}}},
		{"duplicate name", []Tenant{ok, {Name: "a", Key: "key-bbbbbbbb"}}},
		{"short key", []Tenant{{Name: "a", Key: "short"}}},
		{"duplicate key", []Tenant{ok, {Name: "b", Key: "key-aaaaaaaa"}}},
		{"negative rate", []Tenant{{Name: "a", Key: "key-aaaaaaaa", RatePerSec: -1}}},
		{"negative quota", []Tenant{{Name: "a", Key: "key-aaaaaaaa", MaxQueued: -1}}},
	}
	for _, tc := range bad {
		if _, err := NewTenants(tc.list); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	reg := twoTenants(t, []Tenant{{Name: "a", Key: "key-aaaaaaaa", RatePerSec: 2.5}})
	if snap := declared(t, reg, "a"); snap.Burst != 3 {
		t.Fatalf("default burst = %d, want ceil(2.5) = 3", snap.Burst)
	}
}

func TestLoadTenantsErrors(t *testing.T) {
	if _, err := LoadTenants(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing tenants file accepted")
	}
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.json")
	os.WriteFile(empty, []byte(`{"tenants":[]}`), 0o644)
	if _, err := LoadTenants(empty); err == nil {
		t.Fatal("tenants file with no tenants accepted")
	}
	good := filepath.Join(dir, "good.json")
	os.WriteFile(good, []byte(`{"tenants":[{"name":"a","key":"key-aaaaaaaa"}]}`), 0o644)
	reg, err := LoadTenants(good)
	if err != nil || reg.Len() != 1 {
		t.Fatalf("good tenants file: %v, %d tenants", err, reg.Len())
	}
}

func TestAuthenticate(t *testing.T) {
	reg := twoTenants(t, []Tenant{
		{Name: "a", Key: "key-aaaaaaaa"},
		{Name: "b", Key: "key-bbbbbbbb"},
	})
	if name, ok := reg.Authenticate("key-bbbbbbbb"); !ok || name != "b" {
		t.Fatalf("Authenticate(b's key) = %q, %v", name, ok)
	}
	if _, ok := reg.Authenticate("key-cccccccc"); ok {
		t.Fatal("unknown key authenticated")
	}
	if _, ok := reg.Authenticate(""); ok {
		t.Fatal("empty key authenticated")
	}
}

// TestTenantTokenBucket drives the bucket through a fake clock: burst spends
// down to rate rejection, elapsed time refills fractionally, and the refill
// never exceeds the burst cap.
func TestTenantTokenBucket(t *testing.T) {
	reg := twoTenants(t, []Tenant{{Name: "a", Key: "key-aaaaaaaa", RatePerSec: 2, Burst: 2}})
	now := time.Unix(1000, 0)
	reg.now = func() time.Time { return now }

	rateRejections := 0
	admit := func() error {
		err := reg.gate("a", 0, 1, 0)
		if err == nil {
			reg.commit("a")
		}
		var be *BusyError
		if errors.As(err, &be) && be.Reason == RejectRate {
			rateRejections++
		}
		return err
	}
	if err := admit(); err != nil {
		t.Fatalf("first (burst) admission: %v", err)
	}
	if err := admit(); err != nil {
		t.Fatalf("second (burst) admission: %v", err)
	}
	err := admit()
	var be *BusyError
	if !errors.As(err, &be) || be.Reason != RejectRate || be.Tenant != "a" {
		t.Fatalf("drained bucket: %v, want rate-limited BusyError", err)
	}
	if be.RetryAfter <= 0 {
		t.Fatalf("rate rejection carries no Retry-After: %+v", be)
	}

	now = now.Add(500 * time.Millisecond) // 2/s x 0.5s = 1 token
	if err := admit(); err != nil {
		t.Fatalf("refilled admission: %v", err)
	}
	if err := admit(); !errors.As(err, &be) {
		t.Fatalf("bucket should be dry again: %v", err)
	}

	now = now.Add(time.Hour) // refill is capped at Burst, not an hour of rate
	for i := 0; i < 2; i++ {
		if err := admit(); err != nil {
			t.Fatalf("post-idle admission %d: %v", i, err)
		}
	}
	if err := admit(); !errors.As(err, &be) {
		t.Fatalf("idle refill exceeded burst: %v", err)
	}
	if rateRejections != 3 {
		t.Fatalf("rate rejections = %d, want 3", rateRejections)
	}
}

func TestTenantQuotasAndCeiling(t *testing.T) {
	reg := twoTenants(t, []Tenant{
		{Name: "a", Key: "key-aaaaaaaa", MaxPriority: 2, MaxQueued: 1},
		{Name: "b", Key: "key-bbbbbbbb", MaxActive: 2},
	})

	// Priority above the ceiling is authorization, not load: ForbiddenError.
	err := reg.gate("a", 3, 1, 0)
	var fe *ForbiddenError
	if !errors.As(err, &fe) || fe.Tenant != "a" {
		t.Fatalf("over-ceiling priority: %v, want ForbiddenError", err)
	}

	if err := reg.gate("a", 2, 1, 0); err != nil {
		t.Fatalf("at-ceiling priority: %v", err)
	}
	reg.commit("a") // queued=1, the queue quota

	err = reg.gate("a", 0, 1, 0)
	var be *BusyError
	if !errors.As(err, &be) || be.Reason != RejectQueueQuota {
		t.Fatalf("queue quota: %v", err)
	}
	reg.move("a", -1, +1) // queued=0 running=1: the queue quota frees up
	if err := reg.gate("a", 0, 1, 0); err != nil {
		t.Fatalf("after start: %v", err)
	}

	// b's quota is active = queued+running: one queued plus one running
	// saturates MaxActive 2 regardless of the split.
	reg.commit("b")
	reg.move("b", -1, +1)
	reg.commit("b")
	err = reg.gate("b", 0, 1, 0)
	if !errors.As(err, &be) || be.Reason != RejectActiveQuota || be.Tenant != "b" {
		t.Fatalf("active quota: %v", err)
	}

	// gate never consumed what commit did not: drain the backlog and
	// admission works again.
	reg.move("b", -1, +1)
	reg.finished("b", 0.1)
	reg.finished("b", 0.1)
	if err := reg.gate("b", 0, 1, 0); err != nil {
		t.Fatalf("after drain: %v", err)
	}
	snapA, snapB := declared(t, reg, "a"), declared(t, reg, "b")
	if snapA.Queued != 0 || snapA.Running != 1 || snapB.Queued != 0 || snapB.Running != 0 {
		t.Fatalf("live state after the dance: a=%+v b=%+v", snapA, snapB)
	}
}

// TestUsageLedgerRoundTrip persists a ledger through a Server, restarts into
// a fresh registry, and checks base+usage arithmetic plus byte-determinism.
func TestUsageLedgerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "usage.json")
	list := []Tenant{
		{Name: "b-second", Key: "key-bbbbbbbb"},
		{Name: "a-first", Key: "key-aaaaaaaa"},
	}

	fr := &fakeRunner{}
	reg1 := twoTenants(t, list)
	s1, err := New(Options{Slots: 1, Run: fr.run, Tenants: reg1, UsagePath: path})
	if err != nil {
		t.Fatal(err)
	}
	spec := spec1("fft")
	spec.Tenant = "a-first"
	reg1.commit("a-first") // what Submit would do after the gate
	st, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s1, st.ID)
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Restart: the ledger becomes base; process usage starts at zero.
	reg2 := twoTenants(t, list)
	s2, err := New(Options{Slots: 1, Run: fr.run, Tenants: reg2, UsagePath: path})
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := s2.tenantSnapshot("a-first")
	if snap.Usage.JobsDone != 0 {
		t.Fatalf("restart leaked ledger into process usage: %+v", snap.Usage)
	}
	if snap.Total.JobsDone != 1 || snap.Total.SimulatedRuns != 1 || snap.Total.EngineCycles == 0 {
		t.Fatalf("restored totals: %+v", snap.Total)
	}
	if err := s2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// No new work happened, so an identical ledger must serialize to
	// identical bytes (sorted names, not map order).
	if string(first) != string(second) {
		t.Fatalf("ledger bytes not deterministic:\n%s\nvs\n%s", first, second)
	}

	// A corrupt ledger must fail construction loudly, not run with a silent
	// zero bill.
	os.WriteFile(path, []byte("{not json"), 0o644)
	if _, err := New(Options{Slots: 1, Run: fr.run, Tenants: twoTenants(t, list), UsagePath: path}); err == nil {
		t.Fatal("corrupt usage ledger accepted")
	}
}

// startTenantAPI boots an authenticated server with one permissive and one
// tightly quota'd tenant.
func startTenantAPI(t *testing.T, opt Options) (*Server, *Client) {
	t.Helper()
	opt.Tenants = twoTenants(t, []Tenant{
		{Name: "quiet", Key: "quiet-key-000001", MaxPriority: 5},
		{Name: "noisy", Key: "noisy-key-000001", MaxActive: 1},
	})
	return startAPI(t, opt)
}

func TestHTTPAuthRequired(t *testing.T) {
	fr := &fakeRunner{}
	_, c := startTenantAPI(t, Options{Slots: 1, Run: fr.run})

	status := func(key, method, path string, body string) (int, errorBody) {
		t.Helper()
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, _ := http.NewRequest(method, "http://"+c.Base+path, rd)
		if key != "" {
			req.Header.Set("Authorization", "Bearer "+key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb errorBody
		json.NewDecoder(resp.Body).Decode(&eb)
		return resp.StatusCode, eb
	}

	// Missing and wrong keys: 401 with a typed body carrying the request id.
	for _, key := range []string{"", "wrong-key-000001"} {
		code, eb := status(key, "GET", "/api/v1/jobs", "")
		if code != http.StatusUnauthorized {
			t.Fatalf("key %q: %d, want 401", key, code)
		}
		if eb.Error == "" || eb.RequestID == "" {
			t.Fatalf("401 body lacks error/request_id: %+v", eb)
		}
	}

	// The open endpoints stay open.
	for _, path := range []string{"/healthz", "/metrics.prom"} {
		if code, _ := status("", "GET", path, ""); code != http.StatusOK {
			t.Fatalf("%s: %d, want 200 without a key", path, code)
		}
	}

	// X-API-Key works as the fallback header.
	req, _ := http.NewRequest("GET", "http://"+c.Base+"/api/v1/jobs", nil)
	req.Header.Set("X-API-Key", "quiet-key-000001")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("X-API-Key: %d, want 200", resp.StatusCode)
	}

	// Over-ceiling priority: 403 with tenant and reason in the body.
	code, eb := status("quiet-key-000001", "POST", "/api/v1/jobs",
		`{"priority": 6, "configs": [{"arch":"agg","app":"fft","threads":8,"pressure":0.75,"dratio":1}]}`)
	if code != http.StatusForbidden {
		t.Fatalf("over-ceiling priority: %d, want 403", code)
	}
	if eb.Tenant != "quiet" || eb.Reason == "" {
		t.Fatalf("403 body: %+v", eb)
	}
}

func TestClientAuthAndRetrySemantics(t *testing.T) {
	fr := &fakeRunner{gate: make(chan struct{})}
	s, c := startTenantAPI(t, Options{Slots: 1, Run: fr.run})

	// SubmitRetry must NOT retry a 401 — it is not load, and retrying would
	// hammer the daemon with a bad key.
	c.APIKey = "wrong-key-000001"
	_, retries, err := c.SubmitRetry(context.Background(), spec1("fft"), 5, 0)
	if err == nil || retries != 0 {
		t.Fatalf("401 submit: err=%v retries=%d, want error with 0 retries", err, retries)
	}

	// The noisy tenant's quota (MaxActive 1) produces a per-tenant 429
	// carrying tenant, reason and a Retry-After.
	c.APIKey = "noisy-key-000001"
	st1, err := c.Submit(spec1("a"))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, 1)
	_, err = c.Submit(spec1("b"))
	var be *BusyError
	if !errors.As(err, &be) || be.Tenant != "noisy" || be.Reason != RejectActiveQuota || be.RetryAfter <= 0 {
		t.Fatalf("quota 429: %v", err)
	}

	// The quiet tenant is not touched by noisy's quota.
	qc := NewClient(c.Base)
	qc.APIKey = "quiet-key-000001"
	st2, err := qc.Submit(spec1("c"))
	if err != nil {
		t.Fatalf("quiet tenant blocked by noisy's quota: %v", err)
	}

	// SubmitRetry absorbs the per-tenant 429 and gets in once the quota
	// frees up.
	done := make(chan struct{})
	var st3 JobStatus
	var retried int
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		st3, retried, err = c.SubmitRetry(ctx, spec1("d"), 100, 50*time.Millisecond)
	}()
	time.Sleep(100 * time.Millisecond) // let it hit the quota at least once
	close(fr.gate)
	<-done
	if err != nil || retried == 0 {
		t.Fatalf("SubmitRetry through quota: err=%v retries=%d", err, retried)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, id := range []string{st1.ID, st2.ID, st3.ID} {
		if _, err := qc.Wait(ctx, id, 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}

	// Statuses carry the submitting tenant; ?tenant= filters the listing.
	if st, _ := qc.Status(st1.ID); st.Tenant != "noisy" {
		t.Fatalf("job %s tenant = %q, want noisy", st1.ID, st.Tenant)
	}
	var filtered struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := qc.get("/api/v1/jobs?tenant=quiet", &filtered); err != nil {
		t.Fatal(err)
	}
	if len(filtered.Jobs) != 1 || filtered.Jobs[0].ID != st2.ID {
		t.Fatalf("?tenant=quiet listing: %+v", filtered.Jobs)
	}

	// Tenant snapshots over the wire: names, attribution, no keys.
	snaps, err := qc.Tenants()
	if err != nil || len(snaps) != 2 {
		t.Fatalf("tenants: %v, %v", snaps, err)
	}
	usage, err := qc.Usage("noisy")
	if err != nil || usage.Usage.JobsSubmitted != 2 || usage.Usage.RejectedActiveQuota == 0 {
		t.Fatalf("noisy usage: %+v, %v", usage.Usage, err)
	}
	if _, err := qc.Usage("nobody"); err == nil {
		t.Fatal("unknown tenant usage should 404")
	}
}

func TestTenancyDisabled404(t *testing.T) {
	fr := &fakeRunner{}
	_, c := startAPI(t, Options{Slots: 1, Run: fr.run})
	if _, err := c.Tenants(); err == nil {
		t.Fatal("tenants listing on an anonymous daemon should 404")
	}
	// Anonymous mode ignores any key sent and keeps working.
	c.APIKey = "whatever-key-0001"
	if _, err := c.Jobs(); err != nil {
		t.Fatalf("anonymous daemon rejected a keyed request: %v", err)
	}
}
