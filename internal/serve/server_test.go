package serve

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pimdsm/internal/machine"
	"pimdsm/internal/obs/svclog"
	"pimdsm/internal/stats"
)

// fakeRunner synthesizes results instantly (optionally gated), recording
// every simulated config so tests can assert what actually ran.
type fakeRunner struct {
	mu    sync.Mutex
	gate  chan struct{} // nil = ungated; else every run blocks until closed
	ran   []string      // app names in run order
	calls atomic.Int64
}

func (f *fakeRunner) run(cfg machine.Config) (*machine.Result, error) {
	f.calls.Add(1)
	if f.gate != nil {
		<-f.gate
	}
	f.mu.Lock()
	f.ran = append(f.ran, cfg.App.Name)
	f.mu.Unlock()
	res := &machine.Result{Arch: cfg.Arch, App: cfg.App.Name, Threads: cfg.Threads,
		PerThread: make([]stats.Thread, cfg.Threads)}
	res.Breakdown.Exec = 1000
	return res, nil
}

func spec1(app string) JobSpec {
	return JobSpec{Configs: []ConfigSpec{{Arch: "agg", App: app, Threads: 8, Pressure: 0.75, DRatio: 1}}}
}

func waitJob(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	j, ok := s.Job(id)
	if !ok {
		t.Fatalf("job %s vanished", id)
	}
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s never finished", id)
	}
	return s.Status(j)
}

func TestServerRunsAndCaches(t *testing.T) {
	// The full observability layer is enabled here on purpose: logging and
	// lifecycle tracing are record-only, so the byte-identity assertions
	// below double as the proof that observing a job never changes what the
	// job returns.
	fr := &fakeRunner{}
	var logBuf bytes.Buffer
	events := svclog.NewEventLog(64)
	s, err := New(Options{
		Slots: 2, Run: fr.run,
		Log:    svclog.New(&logBuf, slog.LevelDebug, true),
		Events: events,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	st, err := s.Submit(spec1("fft"))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitJob(t, s, st.ID)
	if fin.State != JobDone || fin.Simulated != 1 || fin.CacheHits != 0 {
		t.Fatalf("first run: %+v", fin)
	}
	st2, _ := s.Submit(spec1("fft"))
	fin2 := waitJob(t, s, st2.ID)
	if fin2.State != JobDone || fin2.CacheHits != 1 || fin2.Simulated != 0 {
		t.Fatalf("resubmission not served from cache: %+v", fin2)
	}
	if got := fr.calls.Load(); got != 1 {
		t.Fatalf("runner called %d times, want 1", got)
	}
	stats := s.Stats()
	if stats.SimulatedRuns != 1 || stats.SimulatedCycles != 1000 {
		t.Fatalf("engine-cycle counters moved on a cache hit: %+v", stats)
	}
	// Byte identity between the two jobs' served results.
	j1, _ := s.Job(st.ID)
	j2, _ := s.Job(st2.ID)
	js1, _ := s.Results(j1)
	js2, _ := s.Results(j2)
	if string(js1[0]) != string(js2[0]) {
		t.Fatal("cache hit served different bytes than the original run")
	}

	// Both jobs left complete, ordered lifecycle chains: the first one
	// simulated its config, the resubmission resolved it as a cache hit.
	if err := ValidateEventChain(events.Job(st.ID), 1); err != nil {
		t.Fatalf("first job chain: %v\n%+v", err, events.Job(st.ID))
	}
	if err := ValidateEventChain(events.Job(st2.ID), 1); err != nil {
		t.Fatalf("resubmission chain: %v\n%+v", err, events.Job(st2.ID))
	}
	var hit bool
	for _, ev := range events.Job(st2.ID) {
		if ev.Kind == svclog.EvCacheHit {
			hit = true
		}
		if ev.Kind == svclog.EvSimulated {
			t.Fatalf("resubmission chain claims a simulation: %+v", ev)
		}
	}
	if !hit {
		t.Fatal("resubmission chain has no cache_hit event")
	}
	// And the structured log recorded both jobs without leaking raw
	// timestamps (deterministic mode).
	logs := logBuf.String()
	if strings.Count(logs, `"msg":"job_done"`) != 2 {
		t.Fatalf("want 2 job_done log lines:\n%s", logs)
	}
	if strings.Contains(logs, `"time"`) {
		t.Fatalf("deterministic log mode leaked timestamps:\n%s", logs)
	}
}

func TestServerSingleflightAcrossJobs(t *testing.T) {
	fr := &fakeRunner{gate: make(chan struct{})}
	s, err := New(Options{Slots: 2, Run: fr.run})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	a, _ := s.Submit(spec1("fft"))
	b, _ := s.Submit(spec1("fft"))
	// Wait until both jobs are running: A owns the flight (blocked in the
	// gated runner), B has joined it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats()
		if st.Running == 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(fr.gate)
	fa := waitJob(t, s, a.ID)
	fb := waitJob(t, s, b.ID)
	if fr.calls.Load() != 1 {
		t.Fatalf("identical concurrent submissions simulated %d times, want exactly 1", fr.calls.Load())
	}
	if fa.State != JobDone || fb.State != JobDone {
		t.Fatalf("states: %v %v", fa.State, fb.State)
	}
	if fa.Simulated+fb.Simulated != 1 || fa.Joins+fb.Joins != 1 {
		t.Fatalf("want one simulation and one join: %+v %+v", fa, fb)
	}
	ja, _ := s.Job(a.ID)
	jb, _ := s.Job(b.ID)
	ja1, _ := s.Results(ja)
	jb1, _ := s.Results(jb)
	if string(ja1[0]) != string(jb1[0]) {
		t.Fatal("joined job served different bytes")
	}
}

func TestServerAdmissionWindow(t *testing.T) {
	fr := &fakeRunner{gate: make(chan struct{})}
	s, err := New(Options{Slots: 1, QueueLimit: 2, Run: fr.run})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	first, _ := s.Submit(spec1("a")) // holds the slot, blocked on the gate
	waitRunning(t, s, 1)
	if _, err := s.Submit(spec1("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(spec1("c")); err != nil {
		t.Fatal(err)
	}
	_, err = s.Submit(spec1("d")) // window (2) full
	be, ok := err.(*BusyError)
	if !ok {
		t.Fatalf("over-window submit: err = %v, want *BusyError", err)
	}
	if be.RetryAfter < time.Second {
		t.Fatalf("retry-after %v < 1s floor", be.RetryAfter)
	}
	if s.Stats().JobsRejected != 1 {
		t.Fatalf("rejections: %+v", s.Stats())
	}
	close(fr.gate)
	waitJob(t, s, first.ID)
}

func waitRunning(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Running < n {
		if time.Now().After(deadline) {
			t.Fatalf("never reached %d running jobs", n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServerPriorityOrder(t *testing.T) {
	fr := &fakeRunner{gate: make(chan struct{})}
	s, err := New(Options{Slots: 1, QueueLimit: 16, Run: fr.run})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	blocker, _ := s.Submit(spec1("blocker"))
	waitRunning(t, s, 1)
	low := spec1("low")
	lowJob, _ := s.Submit(low)
	hi := spec1("high")
	hi.Priority = 10
	hiJob, _ := s.Submit(hi)
	low2 := spec1("low2")
	low2Job, _ := s.Submit(low2)
	close(fr.gate)
	for _, id := range []string{blocker.ID, lowJob.ID, hiJob.ID, low2Job.ID} {
		waitJob(t, s, id)
	}
	fr.mu.Lock()
	order := append([]string(nil), fr.ran...)
	fr.mu.Unlock()
	want := []string{"blocker", "high", "low", "low2"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("execution order %v, want %v (priority first, FIFO within)", order, want)
	}
}

func TestServerShutdownDrainsAndAborts(t *testing.T) {
	fr := &fakeRunner{gate: make(chan struct{})}
	s, err := New(Options{Slots: 1, QueueLimit: 8, Run: fr.run})
	if err != nil {
		t.Fatal(err)
	}
	running, _ := s.Submit(spec1("running"))
	waitRunning(t, s, 1)
	queued, _ := s.Submit(spec1("queued"))

	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()

	// The queued job aborts immediately; the running one drains.
	qfin := waitJob(t, s, queued.ID)
	if qfin.State != JobAborted {
		t.Fatalf("queued job state %v, want aborted", qfin.State)
	}
	if _, err := s.Submit(spec1("late")); err != ErrDraining {
		t.Fatalf("submit during drain: %v, want ErrDraining", err)
	}
	close(fr.gate)
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	rfin := waitJob(t, s, running.ID)
	if rfin.State != JobDone || rfin.Simulated != 1 {
		t.Fatalf("running job not drained: %+v", rfin)
	}
}

func TestServerPersistsCacheAcrossRestart(t *testing.T) {
	path := t.TempDir() + "/cache.json"
	fr := &fakeRunner{}
	s, err := New(Options{Slots: 1, CachePath: path, Run: fr.run})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := s.Submit(spec1("fft"))
	waitJob(t, s, st.ID)
	j, _ := s.Job(st.ID)
	js, _ := s.Results(j)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	fr2 := &fakeRunner{}
	s2, err := New(Options{Slots: 1, CachePath: path, Run: fr2.run})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(context.Background())
	if s2.Cache().Len() != 1 {
		t.Fatalf("restored %d entries, want 1", s2.Cache().Len())
	}
	st2, _ := s2.Submit(spec1("fft"))
	fin := waitJob(t, s2, st2.ID)
	if fin.CacheHits != 1 || fin.Simulated != 0 || fr2.calls.Load() != 0 {
		t.Fatalf("restart did not serve from the persisted index: %+v, %d runner calls", fin, fr2.calls.Load())
	}
	j2, _ := s2.Job(st2.ID)
	js2, _ := s2.Results(j2)
	if string(js[0]) != string(js2[0]) {
		t.Fatal("persisted result bytes differ from the original run")
	}
}

func TestSubmitValidation(t *testing.T) {
	s, err := New(Options{Slots: 1, Run: (&fakeRunner{}).run})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	if _, err := s.Submit(JobSpec{}); err == nil {
		t.Fatal("empty job accepted")
	}
	if _, err := s.Submit(JobSpec{Configs: []ConfigSpec{{App: "fft"}}}); err == nil {
		t.Fatal("config without arch accepted")
	}
}
