package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"pimdsm"
	"pimdsm/internal/obs/svclog"
)

const (
	svcScale      = 0.02 // Figure-6 batches at a reduced scale, 32 threads
	svcSmallScale = 0.01
	// svcReqPerSecond fixes the request count: --seconds × this many. A run
	// is a fixed amount of work, not a fixed duration, because the server
	// keeps every job: a faster build would otherwise complete more requests
	// and read as a peak_rss_mb regression.
	svcReqPerSecond = 850
	svcSmallReqs    = 20
	svcTimeout      = 10 * time.Second // per request; a missing completion is a failed op
	// svcWindow is the request count over which latency_p99_ms is taken,
	// about a second of the timed loop, with ten requests beyond its p99.
	svcWindow = 1000
)

// hotSet is the svc-hit catalogue: one Figure-6 batch per application, the
// canonical result bytes a direct pimdsm.Run produces for each config, and
// the simulated ops each batch covers.
type hotSet struct {
	batches [][]pimdsm.ConfigSpec
	want    [][][]byte
	ops     []uint64
	model   model
}

func buildHotSet(scale float64) (*hotSet, error) {
	h := &hotSet{}
	for _, app := range pimdsm.Apps() {
		batch := pimdsm.Figure6Specs(app, 32, scale)
		want := make([][]byte, len(batch))
		var ops uint64
		for i, cs := range batch {
			r, err := pimdsm.Run(cs.Config())
			if err != nil {
				return nil, err
			}
			if want[i], err = json.Marshal(r); err != nil {
				return nil, err
			}
			ops += opsOf(r)
			h.model.add(r)
		}
		h.batches = append(h.batches, batch)
		h.want = append(h.want, want)
		h.ops = append(h.ops, ops)
	}
	return h, nil
}

// completion is what the event subscription learned about one job.
type completion struct {
	received time.Time // when the terminal event reached the client
	ok       bool
	ch       chan struct{} // closed on the terminal event
}

// jobWatch routes lifecycle events from the one SSE subscription to the
// requests waiting on them. A job's events may arrive before its submit
// call returns, so entries are created by whichever side comes first.
type jobWatch struct {
	mu   sync.Mutex
	jobs map[string]*completion
}

func (w *jobWatch) entryLocked(id string) *completion {
	c := w.jobs[id]
	if c == nil {
		c = &completion{ch: make(chan struct{})}
		w.jobs[id] = c
	}
	return c
}

func (w *jobWatch) dispatch(ev pimdsm.JobEvent) {
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	switch ev.Kind {
	case svclog.EvDone, svclog.EvFailed, svclog.EvAborted:
		if c := w.entryLocked(ev.Job); c.received.IsZero() {
			c.received, c.ok = now, ev.Kind == svclog.EvDone
			close(c.ch)
		}
	}
}

// wait blocks until job id's terminal event arrives or the timeout passes.
func (w *jobWatch) wait(id string, timeout time.Duration) (*completion, error) {
	w.mu.Lock()
	c := w.entryLocked(id)
	w.mu.Unlock()
	t := time.NewTimer(timeout)
	defer t.Stop()
	var err error
	select {
	case <-c.ch:
		if !c.ok {
			err = fmt.Errorf("job %s did not complete", id)
		}
	case <-t.C:
		err = fmt.Errorf("job %s: no completion event within %s", id, timeout)
	}
	w.mu.Lock()
	delete(w.jobs, id)
	w.mu.Unlock()
	return c, err
}

// service is one in-process daemon with its client and event subscription.
type service struct {
	srv        *pimdsm.Server
	stopHTTP   func()
	transport  *http.Transport
	client     *pimdsm.ServiceClient
	watch      *jobWatch
	stopStream context.CancelFunc
	streamDone chan struct{}
	streamErr  error // read only after streamDone closes
}

func startService() (*service, error) {
	srv, err := pimdsm.NewServer(pimdsm.ServerOptions{Events: pimdsm.NewEventLog(0)}, 1)
	if err != nil {
		return nil, err
	}
	addr, stopHTTP, err := pimdsm.NewServiceAPI(srv, nil).ListenAndServe("127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background()) // nothing was submitted
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &service{
		srv: srv, stopHTTP: stopHTTP, transport: &http.Transport{},
		client:     pimdsm.NewServiceClient(addr),
		watch:      &jobWatch{jobs: map[string]*completion{}},
		stopStream: cancel, streamDone: make(chan struct{}),
	}
	s.client.HTTP = &http.Client{Transport: s.transport}
	go func() {
		defer close(s.streamDone)
		_, err := s.client.StreamEvents(ctx, 0, "", "", s.watch.dispatch)
		if err != nil && ctx.Err() == nil {
			s.streamErr = err
		}
	}()
	return s, nil
}

// stop tears the service down and waits for every goroutine it started.
func (s *service) stop() error {
	s.stopStream()
	s.stopHTTP()
	<-s.streamDone
	s.transport.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return errors.Join(s.streamErr, s.srv.Shutdown(ctx))
}

// timing is one request's timeline: the bounds of svcPhases, in order.
// Server-side points (queued, started, done) come from the service's own
// lifecycle events, read from its in-process event log after the timed
// loop; the SSE copies carry wall-clock time only, and the wall clock may
// be stepped mid-request.
type timing struct {
	job                                                   string
	start, queued, started, done, seen, fetched, verified time.Time
	latency                                               time.Duration
}

func (t timing) points() [7]time.Time {
	return [7]time.Time{t.start, t.queued, t.started, t.done, t.seen, t.fetched, t.verified}
}

// phases splits the timeline into svcPhases.
func (t timing) phases() [6]time.Duration {
	pts := t.points()
	var out [6]time.Duration
	for i := range out {
		out[i] = pts[i+1].Sub(pts[i])
	}
	return out
}

// addServerTimes fills in the job's queued, started and done times.
func (t *timing) addServerTimes(events *pimdsm.EventLog) error {
	for _, ev := range events.Job(t.job) {
		switch ev.Kind {
		case svclog.EvQueued:
			t.queued = ev.At
		case svclog.EvStarted:
			t.started = ev.At
		case svclog.EvDone:
			t.done = ev.At
		}
	}
	if t.queued.IsZero() || t.started.IsZero() || t.done.IsZero() {
		return fmt.Errorf("job %s: lifecycle chain incomplete", t.job)
	}
	return nil
}

// request submits one batch, waits for its completion event, fetches the
// result bytes and verifies them against want. cached demands that every
// config was a cache hit.
func (s *service) request(batch []pimdsm.ConfigSpec, want [][]byte, cached bool) (timing, pimdsm.JobStatus, error) {
	var t timing
	var job pimdsm.JobStatus
	t.start = time.Now()
	st, err := s.client.Submit(pimdsm.JobSpec{Configs: batch})
	if err != nil {
		return t, job, fmt.Errorf("submit: %w", err)
	}
	submitted := time.Now()
	t.job = st.ID
	c, err := s.watch.wait(st.ID, svcTimeout)
	if err != nil {
		return t, job, err
	}
	t.seen = c.received
	if submitted.After(t.seen) {
		t.seen = submitted // completion is known once both the id and the event are in
	}
	job, results, err := s.client.Result(st.ID)
	t.fetched = time.Now()
	if err != nil {
		return t, job, fmt.Errorf("result %s: %w", st.ID, err)
	}
	err = verify(job, results, want, cached)
	t.verified = time.Now()
	t.latency = t.verified.Sub(t.start)
	return t, job, err
}

// verify checks served result bytes against the expected ones.
func verify(job pimdsm.JobStatus, got []json.RawMessage, want [][]byte, cached bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("job %s: %d results, want %d", job.ID, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			return fmt.Errorf("job %s config %d: served bytes differ from a direct run", job.ID, i)
		}
	}
	if cached && job.CacheHits != job.Total {
		return fmt.Errorf("job %s: %d of %d configs were cache hits", job.ID, job.CacheHits, job.Total)
	}
	return nil
}

// setUpService starts a daemon and simulates and records the hot set
// through it, checking every result against a direct run.
func setUpService(h *hotSet, o *outcome) (*service, error) {
	s, err := startService()
	if err != nil {
		return nil, err
	}
	for b, batch := range h.batches {
		_, _, err := s.request(batch, h.want[b], false)
		for range batch {
			o.check(err)
		}
	}
	return s, nil
}

func runSvc(p params, o *outcome) error {
	scale, n := svcScale, p.seconds*svcReqPerSecond
	if p.small {
		scale, n = svcSmallScale, svcSmallReqs
	}
	h, err := buildHotSet(scale)
	if err != nil {
		return err
	}

	// Set-up: server, API, event subscription, hot set simulated and
	// recorded. Repeated for a steady setup_s; the last one serves the run.
	var s *service
	var setups []float64
	for i := range setupRepeats {
		t0 := time.Now()
		if s, err = setUpService(h, o); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			if err := s.stop(); err != nil {
				return err
			}
		}
	}
	o.e2e["setup_s"] = median(setups)

	rng := rand.New(rand.NewSource(p.seed))
	seq := make([]int, n)
	for i := range seq {
		seq[i] = rng.Intn(len(h.batches))
	}
	type done struct {
		batch int
		t     timing
	}
	reqs := make([]done, 0, n)
	var hits, total int
	runtime.GC()
	var heap0, heap1 runtime.MemStats
	runtime.ReadMemStats(&heap0)
	var prof *cpuProfile
	if p.trace {
		if prof, err = startCPUProfile(); err != nil {
			return err
		}
	}
	before := sampleHost()
	for i, b := range seq {
		if time.Since(processStart) > runBudget {
			for range n - i {
				o.check(fmt.Errorf("run budget of %s spent after %d requests", runBudget, i))
			}
			break
		}
		t, job, err := s.request(h.batches[b], h.want[b], true)
		o.check(err)
		hits, total = hits+job.CacheHits, total+job.Total
		if err == nil {
			reqs = append(reqs, done{b, t})
		}
	}
	after := sampleHost()
	if prof != nil {
		if o.profile, err = prof.stop(); err != nil {
			return err
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&heap1)
	stopErr := s.stop()

	// End to end.
	wall := after.at.Sub(before.at).Seconds()
	completed := float64(max(len(reqs), 1))
	lat := make([]float64, len(reqs))
	var ops uint64
	var phases [6][]float64
	for i := range reqs {
		r := &reqs[i]
		lat[i] = r.t.latency.Seconds() * 1e3
		ops += h.ops[r.batch]
		if err := r.t.addServerTimes(s.srv.Events()); err != nil {
			o.selfCheck("request %d: %v", i, err)
			continue
		}
		var sum time.Duration
		for k, d := range r.t.phases() {
			phases[k] = append(phases[k], d.Seconds()*1e6)
			sum += d
			if d < 0 {
				o.selfCheck("request %d: phase %s is negative (%s)", i, svcPhases[k], d)
			}
		}
		if sum != r.t.latency {
			o.selfCheck("request %d: phases sum to %s, latency %s", i, sum, r.t.latency)
		}
	}
	// The p99 of each window of svcWindow consecutive requests, averaged: a
	// whole-run p99 would be set by the worst burst of host contention.
	// A partial last window is left out, unless it is the only one.
	var winP99 []float64
	for lo := 0; lo < len(reqs); lo += svcWindow {
		hi := min(lo+svcWindow, len(reqs))
		if hi-lo < svcWindow && lo > 0 {
			break
		}
		winP99 = append(winP99, percentile(lat[lo:hi], 0.99))
	}
	o.e2e["sim_ops_per_s"] = float64(ops) / wall
	o.e2e["req_per_s"] = float64(len(reqs)) / wall
	o.e2e["latency_p50_ms"] = median(lat)
	o.e2e["latency_p99_ms"] = mean(winP99)
	o.e2e["cpu_ms_per_req"] = float64(after.cpu-before.cpu) / 1e6 / completed
	if stopErr != nil {
		o.selfCheck("service shutdown: %v", stopErr)
	}

	// Per layer.
	o.layer["traced.req_per_s"] = o.e2e["req_per_s"]
	o.layer["traced.latency_p50_ms"] = o.e2e["latency_p50_ms"]
	for k, ph := range svcPhases {
		o.layer["svc."+ph+"_us"] = median(phases[k])
	}
	var resultBytes int
	for _, r := range reqs {
		for _, b := range h.want[r.batch] {
			resultBytes += len(b)
		}
	}
	o.layer["svc.result_bytes"] = float64(resultBytes) / completed
	o.layer["svc.hit_ratio"] = float64(hits) / float64(max(total, 1))
	o.layer["svc.alloc_bytes_per_req"] = float64(after.allocated-before.allocated) / completed
	o.layer["svc.gc_cpu_fraction"] = gcFraction(before, after)
	o.layer["svc.retained_bytes_per_req"] = (float64(heap1.HeapAlloc) - float64(heap0.HeapAlloc)) / completed
	h.model.set(o.layer)
	if o.profile != nil {
		self, err := cpuByBucket(o.profile, svcBucket)
		if err != nil {
			return err
		}
		for _, pkg := range svcPackages {
			o.layer["self."+pkg+".us_per_req"] = float64(self[pkg]) / 1e3 / completed
		}
	}

	// Spans: one per request, its phases as children.
	for i, r := range reqs {
		root := len(o.spans)
		o.spans = append(o.spans, span{ID: i, Name: "request", Parent: -1,
			Start: elapsedNS(r.t.start, before.at), End: elapsedNS(r.t.verified, before.at)})
		pts := r.t.points()
		for k, ph := range svcPhases {
			o.spans = append(o.spans, span{ID: i, Name: ph, Parent: root,
				Start: elapsedNS(pts[k], before.at), End: elapsedNS(pts[k+1], before.at)})
		}
	}
	return nil
}
