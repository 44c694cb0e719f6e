package serve

import (
	"bytes"
	"context"
	"net/http"
	"runtime"
	"testing"

	"pimdsm/internal/obs/svclog"
)

// TestFinishedJobFootprint bounds what a finished job keeps alive: status,
// result bytes (shared with the cache) and its packed event chain. Every
// all-hit submission decodes into a fresh config slice, as an HTTP one does,
// so a job that pinned its configs or decoded results would show here.
func TestFinishedJobFootprint(t *testing.T) {
	const jobs, warm, maxPerJob = 2000, 200, 1200
	fr := &fakeRunner{}
	s, err := New(Options{Slots: 1, Run: fr.run, Events: svclog.NewEventLog(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	submit := func(n int) {
		for i := 0; i < n; i++ {
			st, err := s.Submit(JobSpec{Name: "fig6-fft", Configs: fig6Batch("fft", 16, 0.05)})
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 && st.State != JobDone {
				t.Fatalf("submission %d: %+v, want an all-hit job done inside Submit", i, st)
			}
		}
	}
	submit(1)
	waitJob(t, s, "j-000001")
	submit(warm)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	submit(jobs)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / jobs
	t.Logf("%d B retained per finished job", per)
	if per > maxPerJob {
		t.Fatalf("a finished job retains %d B, want <= %d", per, maxPerJob)
	}
	if len(s.Jobs()) != 1+warm+jobs {
		t.Fatalf("%d jobs listed, want every job kept", len(s.Jobs()))
	}
}

// TestJobLookupRejectsNonCanonicalID: only j-%06d of an admitted job's
// sequence number names it, in Server.Job and over HTTP.
func TestJobLookupRejectsNonCanonicalID(t *testing.T) {
	fr := &fakeRunner{}
	s, c := startAPI(t, Options{Slots: 1, Run: fr.run})
	for _, app := range []string{"fft", "lu"} {
		st, err := s.Submit(spec1(app))
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, s, st.ID)
	}
	for _, id := range []string{"j-000001", "j-000002"} {
		if j, ok := s.Job(id); !ok || j.id != id {
			t.Fatalf("Job(%q) = %v, %v", id, j, ok)
		}
		if code, body := httpBody(t, c, "/api/v1/jobs/"+id); code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", id, code, body)
		}
	}
	for _, id := range []string{"j-1", "j-0000001", "j-000000", "j-+00001", "j-000003", "x-000001", ""} {
		if j, ok := s.Job(id); ok {
			t.Errorf("Job(%q) found %s", id, j.id)
		}
		if code, body := httpBody(t, c, "/api/v1/jobs/"+id); code != http.StatusNotFound {
			t.Errorf("GET /api/v1/jobs/%s: %d %s, want 404", id, code, body)
		}
	}
}

// TestEvictedJobServesSameBytes: a finished job serves its result bytes
// after the cache evicted every one of its keys, so the job, not the cache,
// holds what it serves and no decoded result outlives the cache's bound.
func TestEvictedJobServesSameBytes(t *testing.T) {
	fr := &fakeRunner{}
	s, c := startAPI(t, Options{Slots: 1, Run: fr.run, CacheEntries: 1})
	spec := batchOf(0, "fft", "lu", "radix")
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, st.ID)
	j, _ := s.Job(st.ID)
	js, ok := s.Results(j)
	if !ok || len(js) != 3 {
		t.Fatalf("results: %d, %v", len(js), ok)
	}
	want := make([][]byte, len(js))
	for i, b := range js {
		want[i] = bytes.Clone(b)
	}
	_, wantBody := httpBody(t, c, "/api/v1/jobs/"+st.ID+"/result")

	st2, err := s.Submit(spec1("ocean"))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, st2.ID)
	for i, cs := range spec.Configs {
		if s.cache.Contains(cs.Key(0)) {
			t.Fatalf("config %d still cached; the test needs it evicted", i)
		}
	}
	js, ok = s.Results(j)
	if !ok || len(js) != len(want) {
		t.Fatalf("results after eviction: %d, %v", len(js), ok)
	}
	for i := range want {
		if !bytes.Equal(js[i], want[i]) {
			t.Fatalf("config %d: bytes changed after eviction", i)
		}
	}
	if code, body := httpBody(t, c, "/api/v1/jobs/"+st.ID+"/result"); code != http.StatusOK || !bytes.Equal(body, wantBody) {
		t.Fatalf("result endpoint after eviction: %d\n%s\nwant\n%s", code, body, wantBody)
	}
}
