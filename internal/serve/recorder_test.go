package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"pimdsm/internal/obs"
)

// telemetrySpec is spec1 with the flight recorder opted in.
func telemetrySpec(app string) JobSpec {
	spec := spec1(app)
	spec.Telemetry = true
	return spec
}

// TestTelemetryJobRecordsArtifacts: a telemetry job finishes with all three
// flight-recorder artifacts fetchable (in-memory path, no store configured),
// while a plain job 404s with ErrArtifactNotRecorded — the metrics/spans
// parity behavior.
func TestTelemetryJobRecordsArtifacts(t *testing.T) {
	fr := &fakeRunner{}
	s, err := New(Options{Slots: 1, Run: fr.run})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	st, err := s.Submit(telemetrySpec("fft"))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitJob(t, s, st.ID)
	if !fin.Telemetry || fin.State != JobDone {
		t.Fatalf("telemetry job status: %+v", fin)
	}
	j, _ := s.Job(st.ID)
	prof, err := s.Artifact(j, ArtifactProfile)
	if err != nil {
		t.Fatalf("profile artifact: %v", err)
	}
	var snap obs.ProfileSnapshot
	if err := json.Unmarshal(prof, &snap); err != nil {
		t.Fatalf("profile artifact is not a snapshot: %v\n%s", err, prof)
	}
	if _, err := s.Artifact(j, ArtifactFolded); err != nil {
		t.Fatalf("folded artifact: %v", err)
	}
	dec, err := s.Artifact(j, ArtifactDecompose)
	if err != nil {
		t.Fatalf("decompose artifact: %v", err)
	}
	var sb obs.SpanBreakdown
	if err := json.Unmarshal(dec, &sb); err != nil {
		t.Fatalf("decompose artifact is not a breakdown: %v\n%s", err, dec)
	}
	if sb.Label != st.ID {
		t.Fatalf("decompose label %q, want the job id %s", sb.Label, st.ID)
	}

	// A job that never opted in has nothing recorded.
	plain, err := s.Submit(spec1("radix"))
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitJob(t, s, plain.ID); fin.Telemetry {
		t.Fatalf("plain job reports telemetry: %+v", fin)
	}
	jp, _ := s.Job(plain.ID)
	if _, err := s.Artifact(jp, ArtifactProfile); err != ErrArtifactNotRecorded {
		t.Fatalf("plain job artifact: %v, want ErrArtifactNotRecorded", err)
	}
	if _, err := s.Artifact(j, "bogus"); err == nil {
		t.Fatal("unknown artifact kind did not error")
	}
}

// TestTelemetryHeadSampling: -telemetry-sample N records every Nth
// submission as if it had asked for telemetry itself.
func TestTelemetryHeadSampling(t *testing.T) {
	fr := &fakeRunner{}
	s, err := New(Options{Slots: 1, Run: fr.run, TelemetrySample: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	want := map[int]bool{1: false, 2: true, 3: false, 4: true}
	for i := 1; i <= 4; i++ {
		st, err := s.Submit(spec1([]string{"fft", "radix", "lu", "ocean"}[i-1]))
		if err != nil {
			t.Fatal(err)
		}
		if fin := waitJob(t, s, st.ID); fin.Telemetry != want[i] {
			t.Fatalf("submission %d: telemetry=%v, want %v", i, fin.Telemetry, want[i])
		}
	}
}

// TestHTTPArtifactEndpoints: the three endpoints serve a telemetry job's
// record with the right content types, and the 404 bodies tell the caller
// exactly how to get the artifact to exist — same actionable shape as the
// metrics/spans 404s.
func TestHTTPArtifactEndpoints(t *testing.T) {
	fr := &fakeRunner{}
	_, c := startAPI(t, Options{Slots: 1, Run: fr.run})

	st, err := c.Submit(telemetrySpec("fft"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if fin, err := c.Wait(ctx, st.ID, 10*time.Millisecond); err != nil || !fin.Telemetry {
		t.Fatalf("wait: %+v, %v", fin, err)
	}
	if b, err := c.Profile(st.ID); err != nil || !json.Valid(b) {
		t.Fatalf("profile over HTTP: %v, %.60s", err, b)
	}
	if _, err := c.Folded(st.ID); err != nil {
		t.Fatalf("folded over HTTP: %v", err)
	}
	if b, err := c.Decompose(st.ID); err != nil || !json.Valid(b) {
		t.Fatalf("decompose over HTTP: %v, %.60s", err, b)
	}

	// Parity 404 for a job that never asked for telemetry.
	plain, err := c.Submit(spec1("radix"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, plain.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	code, body := httpBody(t, c, "/api/v1/jobs/"+plain.ID+"/profile")
	if code != http.StatusNotFound || !bytes.Contains(body, []byte(`submit with \"telemetry\": true`)) {
		t.Fatalf("plain job profile: %d %s, want an actionable 404", code, body)
	}
}

func httpBody(t *testing.T, c *Client, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get("http://" + c.Base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestHTTPArtifactEvicted: with a store configured the store is
// authoritative; an artifact the byte bound evicted 404s with the
// "not in the artifact store" body instead of silently falling back.
func TestHTTPArtifactEvicted(t *testing.T) {
	fr := &fakeRunner{}
	// A 1-byte bound: after recordFlight's three puts only the last written
	// artifact is resident, the other two are evicted.
	s, c := startAPI(t, Options{
		Slots: 1, Run: fr.run,
		ArtifactDir: t.TempDir(), ArtifactBytes: 1,
	})
	st, err := c.Submit(telemetrySpec("fft"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Wait(ctx, st.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	served, evicted := 0, 0
	for _, kind := range []string{ArtifactProfile, ArtifactFolded, ArtifactDecompose} {
		code, body := httpBody(t, c, "/api/v1/jobs/"+st.ID+"/"+kind)
		switch code {
		case http.StatusOK:
			served++
		case http.StatusNotFound:
			if !bytes.Contains(body, []byte("not in the artifact store")) {
				t.Fatalf("%s 404 body not actionable: %s", kind, body)
			}
			evicted++
		default:
			t.Fatalf("%s: unexpected status %d: %s", kind, code, body)
		}
	}
	if served != 1 || evicted != 2 {
		t.Fatalf("%d served, %d evicted, want 1/2 under a 1-byte bound", served, evicted)
	}
	ast := s.ArtifactStore().Stats()
	if ast.Puts != 3 || ast.Evictions != 2 || ast.Count != 1 {
		t.Fatalf("store stats: %+v", ast)
	}
	// The store counters surface through the stats endpoint too.
	stats, err := c.Stats()
	if err != nil || stats.Artifacts.Puts != 3 {
		t.Fatalf("stats over HTTP: %+v, %v", stats.Artifacts, err)
	}
}

// TestTelemetryStoreSurvivesRestart: the flight record is content-addressed
// and the store index persists on Shutdown — a restarted server serves the
// original record for a resubmission even though every config is now a cache
// hit (which records nothing and must not overwrite the real record).
func TestTelemetryStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cache := dir + "/cache.json"
	art := dir + "/artifacts"
	fr := &fakeRunner{}
	opt := Options{Slots: 1, Run: fr.run, CachePath: cache, ArtifactDir: art}

	s1, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit(telemetrySpec("fft"))
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitJob(t, s1, st.ID); fin.Simulated != 1 {
		t.Fatalf("first run: %+v", fin)
	}
	j1, _ := s1.Job(st.ID)
	prof1, err := s1.Artifact(j1, ArtifactProfile)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(context.Background())
	if got := s2.ArtifactStore().Stats().Count; got != 3 {
		t.Fatalf("restored store holds %d artifacts, want 3", got)
	}
	st2, err := s2.Submit(telemetrySpec("fft"))
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitJob(t, s2, st2.ID); fin.CacheHits != 1 || fin.Simulated != 0 {
		t.Fatalf("post-restart resubmission: %+v, want a pure cache hit", fin)
	}
	j2, _ := s2.Job(st2.ID)
	prof2, err := s2.Artifact(j2, ArtifactProfile)
	if err != nil {
		t.Fatalf("restarted server lost the flight record: %v", err)
	}
	if !bytes.Equal(prof1, prof2) {
		t.Fatal("restarted server served a different flight record than the original run's")
	}
	if got := fr.calls.Load(); got != 1 {
		t.Fatalf("runner called %d times across the restart, want 1", got)
	}
}

// TestTelemetryRecordOnly is the record-only gate at the serve layer, with
// real simulations: the result bytes a telemetry job serves are identical to
// a plain job's for the same configuration, and the record itself is rich
// (real cycles attributed, real transactions decomposed) — proof the
// recorder observed the run without perturbing it.
func TestTelemetryRecordOnly(t *testing.T) {
	cfg := ConfigSpec{Arch: "agg", App: "fft", Scale: 0.02, Threads: 4, Pressure: 0.75, DRatio: 1}

	plain, err := New(Options{Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Shutdown(context.Background())
	stP, err := plain.Submit(JobSpec{Configs: []ConfigSpec{cfg}})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, plain, stP.ID)
	jP, _ := plain.Job(stP.ID)
	jsP, ok := plain.Results(jP)
	if !ok {
		t.Fatal("plain job results unavailable")
	}

	tele, err := New(Options{Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tele.Shutdown(context.Background())
	stT, err := tele.Submit(JobSpec{Telemetry: true, Configs: []ConfigSpec{cfg}})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, tele, stT.ID)
	jT, _ := tele.Job(stT.ID)
	jsT, ok := tele.Results(jT)
	if !ok {
		t.Fatal("telemetry job results unavailable")
	}

	if len(jsP) != 1 || len(jsT) != 1 || !bytes.Equal(jsP[0], jsT[0]) {
		t.Fatalf("flight recorder changed the result bytes:\n%s\nvs\n%s", jsP[0], jsT[0])
	}

	prof, err := tele.Artifact(jT, ArtifactProfile)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.ProfileSnapshot
	if err := json.Unmarshal(prof, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.ExecCycles == 0 || snap.PNodes == 0 || len(snap.PCycles) == 0 {
		t.Fatalf("profile snapshot of a real run is empty: %+v", snap)
	}
	folded, err := tele.Artifact(jT, ArtifactFolded)
	if err != nil || len(folded) == 0 {
		t.Fatalf("folded artifact of a real run: %d bytes, %v", len(folded), err)
	}
	dec, err := tele.Artifact(jT, ArtifactDecompose)
	if err != nil {
		t.Fatal(err)
	}
	var sb obs.SpanBreakdown
	if err := json.Unmarshal(dec, &sb); err != nil {
		t.Fatal(err)
	}
	if sb.Retired == 0 || sb.AvgLat <= 0 {
		t.Fatalf("decompose of a real run is empty: %+v", sb)
	}
}
