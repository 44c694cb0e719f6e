package serve

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"pimdsm/internal/machine"
	"pimdsm/internal/obs/svclog"
	"pimdsm/internal/stats"
)

// batchOf is one job of tenant "t" over spec1's config for each app.
func batchOf(seed uint64, apps ...string) JobSpec {
	spec := JobSpec{Tenant: "t", Seed: seed}
	for _, app := range apps {
		spec.Configs = append(spec.Configs, spec1(app).Configs[0])
	}
	return spec
}

// jobCounters is every counter a job moves: the server-wide ones, the
// result bytes, and tenant t's usage.
type jobCounters struct {
	Submitted, Done, SimRuns, SimCycles          uint64
	Hits, Misses, Joins, EventsAppended, Results uint64
	Usage                                        TenantUsage
}

func readCounters(s *Server) jobCounters {
	st := s.Stats()
	snap, _ := s.tenantSnapshot("t")
	return jobCounters{
		Submitted: st.JobsSubmitted, Done: st.JobsDone,
		SimRuns: st.SimulatedRuns, SimCycles: st.SimulatedCycles,
		Hits: st.Cache.Hits, Misses: st.Cache.Misses, Joins: st.Cache.Joins,
		EventsAppended: st.Events.Appended, Results: s.m.resultBytes.Sum(),
		Usage: snap.Usage,
	}
}

func (a jobCounters) minus(b jobCounters) jobCounters {
	d := jobCounters{
		Submitted: a.Submitted - b.Submitted, Done: a.Done - b.Done,
		SimRuns: a.SimRuns - b.SimRuns, SimCycles: a.SimCycles - b.SimCycles,
		Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses, Joins: a.Joins - b.Joins,
		EventsAppended: a.EventsAppended - b.EventsAppended, Results: a.Results - b.Results,
		Usage: a.Usage,
	}
	bu := b.Usage.counters()
	for i, p := range d.Usage.counters() {
		*p -= *bu[i]
	}
	return d
}

// chainOf lists a job's event kinds, with the config index of per-config
// events.
func chainOf(events []svclog.JobEvent) []string {
	var out []string
	for _, ev := range events {
		if ev.Config >= 0 {
			out = append(out, fmt.Sprintf("%s/%d", ev.Kind, ev.Config))
		} else {
			out = append(out, string(ev.Kind))
		}
	}
	return out
}

// TestAllHitBatchCompletesInSubmit: a batch whose configs are all cached
// comes back done from Submit itself, its whole event chain recorded and
// its done channel closed, and it moves exactly the counters, events and
// tenant accounting the same all-hit batch moves when its own goroutine
// resolves it.
//
// Both runs submit the fft+lu batch while a gated simulation holds the one
// slot. In the first, lu is not cached at admission, so the batch queues for
// the slot; lu then enters the cache (with no counter moving) before the
// batch is granted the slot and resolves it as two hits. In the second, lu
// is cached at admission.
func TestAllHitBatchCompletesInSubmit(t *testing.T) {
	fr := &fakeRunner{}
	events := svclog.NewEventLog(0)
	s, err := New(Options{Slots: 1, Run: fr.run, Events: events,
		Tenants: twoTenants(t, []Tenant{{Name: "t", Key: "t-key-000000001"}})})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	submit := func(spec JobSpec) JobStatus {
		t.Helper()
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	waitJob(t, s, submit(batchOf(0, "fft")).ID)

	type outcome struct {
		reply, final JobStatus
		chainAtReply []svclog.JobEvent
		doneAtReply  bool
		delta        jobCounters
	}
	run := func(gateSeed uint64, afterSubmit func()) outcome {
		t.Helper()
		c0 := readCounters(s)
		fr.gate = make(chan struct{})
		gated := submit(batchOf(gateSeed, "ocean"))
		deadline := time.Now().Add(10 * time.Second)
		for s.Stats().Running != 1 {
			if time.Now().After(deadline) {
				t.Fatal("gated job never started")
			}
			time.Sleep(time.Millisecond)
		}
		var o outcome
		o.reply = submit(batchOf(0, "fft", "lu"))
		o.chainAtReply = events.Job(o.reply.ID)
		j, _ := s.Job(o.reply.ID)
		select {
		case <-j.Done():
			o.doneAtReply = true
		default:
		}
		afterSubmit()
		close(fr.gate)
		waitJob(t, s, gated.ID)
		o.final = waitJob(t, s, o.reply.ID)
		o.delta = readCounters(s).minus(c0)
		return o
	}

	lu := spec1("lu").Configs[0].canonical()
	res := &machine.Result{Arch: machine.AGG, App: "lu", Threads: lu.Threads,
		PerThread: make([]stats.Thread, lu.Threads)}
	res.Breakdown.Exec = 1000
	js, _ := canonicalResultJSON(res)
	worker := run(1, func() { s.Cache().Fulfill(lu.Key(0), 0, lu, res, js) })
	ran := len(fr.ran)
	admission := run(2, func() {})

	if worker.reply.State != JobQueued || worker.doneAtReply {
		t.Fatalf("a batch with a miss at admission answered %+v, want queued", worker.reply)
	}
	if admission.reply.State != JobDone || !admission.doneAtReply ||
		admission.reply.StartedAt == nil || admission.reply.FinishedAt == nil {
		t.Fatalf("all-hit Submit answered %+v (done channel closed %v), want done",
			admission.reply, admission.doneAtReply)
	}
	want := []string{"submitted", "queued", "started", "cache_hit/0", "cache_hit/1", "done"}
	if got := chainOf(admission.chainAtReply); !reflect.DeepEqual(got, want) {
		t.Fatalf("chain when Submit returned: %v, want %v", got, want)
	}
	if err := ValidateEventChain(admission.chainAtReply, 2); err != nil {
		t.Fatal(err)
	}
	if got := chainOf(events.Job(worker.reply.ID)); !reflect.DeepEqual(got, want) {
		t.Fatalf("worker-path chain: %v, want %v", got, want)
	}
	if got := len(fr.ran) - ran; got != 1 {
		t.Fatalf("the admission-path run simulated %d configs, want only the gated one", got)
	}

	counts := func(st JobStatus) [7]any {
		return [7]any{st.State, st.Total, st.Done, st.CacheHits, st.Simulated, st.Joins, st.Forwarded}
	}
	if counts(admission.final) != counts(worker.final) || counts(admission.reply) != counts(worker.final) {
		t.Fatalf("job counters: admission path %+v, worker path %+v", admission.final, worker.final)
	}
	if admission.delta != worker.delta {
		t.Fatalf("counters moved: admission path %+v, worker path %+v", admission.delta, worker.delta)
	}
	if snap, _ := s.tenantSnapshot("t"); snap.Queued != 0 || snap.Running != 0 {
		t.Fatalf("tenant t left %d queued, %d running", snap.Queued, snap.Running)
	}
}

// TestPartialHitQueuesAndSimulatesOnlyTheMiss: one uncached config sends
// the whole batch to its own goroutine, which serves the cached config as a
// hit and simulates only the other, once; the cached key counts one hit, not
// one at admission and another on the goroutine.
func TestPartialHitQueuesAndSimulatesOnlyTheMiss(t *testing.T) {
	fr := &fakeRunner{}
	s, err := New(Options{Slots: 1, Run: fr.run,
		Tenants: twoTenants(t, []Tenant{{Name: "t", Key: "t-key-000000001"}})})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	st, err := s.Submit(batchOf(0, "fft"))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, st.ID)
	c0 := readCounters(s)
	fr.gate = make(chan struct{}) // holds the miss, so the reply is surely pre-run
	st, err = s.Submit(batchOf(0, "fft", "lu"))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobQueued {
		t.Fatalf("partial hit answered %s, want queued", st.State)
	}
	close(fr.gate)
	fin := waitJob(t, s, st.ID)
	if fin.State != JobDone || fin.CacheHits != 1 || fin.Simulated != 1 {
		t.Fatalf("partial hit finished %+v, want 1 hit and 1 simulation", fin)
	}
	if want := []string{"fft", "lu"}; !reflect.DeepEqual(fr.ran, want) {
		t.Fatalf("runner ran %v, want %v", fr.ran, want)
	}
	d := readCounters(s).minus(c0)
	if d.Hits != 1 || d.Misses != 1 || d.Usage.CacheHits != 1 || d.Usage.CacheMisses != 1 {
		t.Fatalf("partial hit counted %d hits and %d misses (tenant %d and %d), want 1 and 1",
			d.Hits, d.Misses, d.Usage.CacheHits, d.Usage.CacheMisses)
	}
}

// TestAllHitTelemetryJobRunsOnWorker: a telemetry job records a flight, so
// even with every config cached it leaves Submit queued and runs on its own
// goroutine, and its artifacts
// are served once it is done.
func TestAllHitTelemetryJobRunsOnWorker(t *testing.T) {
	fr := &fakeRunner{}
	s, err := New(Options{Slots: 1, Run: fr.run})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	st, err := s.Submit(spec1("fft"))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, st.ID)
	spec := spec1("fft")
	spec.Telemetry = true
	if st, err = s.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if st.State != JobQueued {
		t.Fatalf("all-hit telemetry job answered %s, want queued", st.State)
	}
	fin := waitJob(t, s, st.ID)
	if fin.State != JobDone || fin.CacheHits != 1 || !fin.Telemetry {
		t.Fatalf("telemetry job finished %+v, want done with 1 hit", fin)
	}
	j, _ := s.Job(st.ID)
	for _, kind := range []string{ArtifactProfile, ArtifactFolded, ArtifactDecompose} {
		if _, err := s.Artifact(j, kind); err != nil {
			t.Errorf("%s artifact: %v", kind, err)
		}
	}
}
