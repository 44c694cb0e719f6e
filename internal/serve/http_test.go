package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"pimdsm/internal/machine"
	"pimdsm/internal/obs/svclog"
)

// startAPI boots a server on an ephemeral port and returns a client for it.
func startAPI(t *testing.T, opt Options) (*Server, *Client) {
	t.Helper()
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	addr, closeHTTP, err := NewAPI(s, nil).ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		closeHTTP()
		s.Shutdown(context.Background())
	})
	return s, NewClient(addr)
}

func TestHTTPSubmitWaitResult(t *testing.T) {
	fr := &fakeRunner{}
	s, c := startAPI(t, Options{Slots: 1, Run: fr.run})

	spec := spec1("fft")
	spec.Name = "http-roundtrip"
	spec.Metrics = true
	st, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Name != "http-roundtrip" {
		t.Fatalf("submit status: %+v", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	fin, err := c.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil || fin.State != JobDone {
		t.Fatalf("wait: %+v, %v", fin, err)
	}

	_, raw, err := c.Result(st.ID)
	if err != nil || len(raw) != 1 {
		t.Fatalf("result: %d raws, %v", len(raw), err)
	}
	// The wire bytes must be the cache's canonical bytes, verbatim.
	j, _ := s.Job(st.ID)
	js, _ := s.Results(j)
	if string(raw[0]) != string(js[0]) {
		t.Fatalf("HTTP served different bytes than the cache holds:\n  %s\nvs\n  %s", raw[0], js[0])
	}

	mb, err := c.Metrics(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(mb) {
		t.Fatalf("metrics artifact is not JSON: %.80s", mb)
	}
	if _, err := c.Spans(st.ID); err == nil {
		t.Fatal("spans artifact should 404 when the job did not request spans")
	}

	jobs, err := c.Jobs()
	if err != nil || len(jobs) != 1 {
		t.Fatalf("jobs: %v, %v", jobs, err)
	}
	stats, err := c.Stats()
	if err != nil || stats.SimulatedRuns != 1 {
		t.Fatalf("stats: %+v, %v", stats, err)
	}
}

func TestHTTPResultConflictWhileRunning(t *testing.T) {
	fr := &fakeRunner{gate: make(chan struct{})}
	s, c := startAPI(t, Options{Slots: 1, Run: fr.run})
	st, err := c.Submit(spec1("fft"))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, 1)
	resp, err := http.Get("http://" + c.Base + "/api/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result while running: %d, want 409", resp.StatusCode)
	}
	close(fr.gate)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Wait(ctx, st.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Result(st.ID); err != nil {
		t.Fatalf("result after done: %v", err)
	}
}

func TestHTTPAdmissionRejection(t *testing.T) {
	fr := &fakeRunner{gate: make(chan struct{})}
	s, c := startAPI(t, Options{Slots: 1, QueueLimit: 1, Run: fr.run})
	if _, err := c.Submit(spec1("a")); err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, 1)
	if _, err := c.Submit(spec1("b")); err != nil {
		t.Fatal(err)
	}
	_, err := c.Submit(spec1("c"))
	be, ok := err.(*BusyError)
	if !ok {
		t.Fatalf("over-window submit via HTTP: %v, want *BusyError", err)
	}
	if be.RetryAfter < time.Second {
		t.Fatalf("retry-after hint %v lost on the wire", be.RetryAfter)
	}
	// The raw response carries the Retry-After header too.
	resp, err := http.Post("http://"+c.Base+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"configs":[{"arch":"agg","app":"d","threads":8}]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	close(fr.gate)
}

func TestHTTPBadRequests(t *testing.T) {
	_, c := startAPI(t, Options{Slots: 1, Run: (&fakeRunner{}).run})
	post := func(body string) int {
		resp, err := http.Post("http://"+c.Base+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("{not json"); code != http.StatusBadRequest {
		t.Fatalf("malformed JSON: %d", code)
	}
	if code := post(`{"bogus_field":1,"configs":[]}`); code != http.StatusBadRequest {
		t.Fatalf("unknown field: %d", code)
	}
	if code := post(`{"configs":[]}`); code != http.StatusBadRequest {
		t.Fatalf("empty config list: %d", code)
	}
	if _, err := c.Status("j-999999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("missing job: %v", err)
	}
}

func TestHTTPHealthzAndProgress(t *testing.T) {
	fr := &fakeRunner{}
	_, c := startAPI(t, Options{Slots: 1, Run: fr.run})
	resp, err := http.Get("http://" + c.Base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	st, err := c.Submit(spec1("fft"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.StreamProgress(ctx, st.ID, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1/1 done") {
		t.Fatalf("progress stream never reported completion: %q", buf.String())
	}
}

// TestHTTP429HeaderBodyAgree: a rejected submission's Retry-After header and
// retry_after_sec body field must carry the same value — clients reading
// either get the same hint — and the body carries the request id.
func TestHTTP429HeaderBodyAgree(t *testing.T) {
	fr := &fakeRunner{gate: make(chan struct{})}
	s, c := startAPI(t, Options{Slots: 1, QueueLimit: 1, Run: fr.run})
	defer close(fr.gate)
	if _, err := c.Submit(spec1("a")); err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, 1)
	if _, err := c.Submit(spec1("b")); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post("http://"+c.Base+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"configs":[{"arch":"agg","app":"c","threads":8}]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	header, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || header < 1 {
		t.Fatalf("Retry-After header %q not a positive integer", resp.Header.Get("Retry-After"))
	}
	var eb struct {
		Error         string `json:"error"`
		RequestID     string `json:"request_id"`
		RetryAfterSec int    `json:"retry_after_sec"`
	}
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("429 body is not JSON: %v: %s", err, body)
	}
	if eb.RetryAfterSec != header {
		t.Fatalf("header Retry-After %d != body retry_after_sec %d", header, eb.RetryAfterSec)
	}
	if eb.RequestID == "" || resp.Header.Get("X-Request-ID") != eb.RequestID {
		t.Fatalf("request id not threaded through: header %q body %q",
			resp.Header.Get("X-Request-ID"), eb.RequestID)
	}
	if eb.Error == "" {
		t.Fatalf("429 body has no error message: %s", body)
	}
}

// TestHTTPReadyz: /healthz is pure liveness (always 200 while serving);
// /readyz degrades to 503 with a JSON reason when the admission window is
// saturated or the server is draining.
func TestHTTPReadyz(t *testing.T) {
	fr := &fakeRunner{gate: make(chan struct{})}
	s, c := startAPI(t, Options{Slots: 1, QueueLimit: 1, Run: fr.run})

	getReady := func() (int, string) {
		resp, err := http.Get("http://" + c.Base + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var rb struct {
			Ready  bool   `json:"ready"`
			Reason string `json:"reason"`
		}
		if err := json.Unmarshal(body, &rb); err != nil {
			t.Fatalf("readyz body not JSON: %v: %s", err, body)
		}
		return resp.StatusCode, rb.Reason
	}

	if code, reason := getReady(); code != http.StatusOK || reason != "" {
		t.Fatalf("idle readyz: %d %q, want 200", code, reason)
	}

	// Saturate: one running (gated), one queued = full window.
	if _, err := c.Submit(spec1("a")); err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, 1)
	if _, err := c.Submit(spec1("b")); err != nil {
		t.Fatal(err)
	}
	if code, reason := getReady(); code != http.StatusServiceUnavailable || reason == "" {
		t.Fatalf("saturated readyz: %d %q, want 503 with a reason", code, reason)
	}
	// Liveness is unaffected by saturation.
	resp, err := http.Get("http://" + c.Base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while saturated: %d", resp.StatusCode)
	}

	// Draining: readyz stays 503 even after the queue clears.
	close(fr.gate)
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, reason := getReady()
		if code == http.StatusServiceUnavailable && reason == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz never reported draining: %d %q", code, reason)
		}
		time.Sleep(time.Millisecond)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestHTTPSSEReplayAfterReconnect: an SSE consumer that disconnects and
// reconnects with Last-Event-ID receives exactly the events it missed — the
// sequence stays dense across the reconnect.
func TestHTTPSSEReplayAfterReconnect(t *testing.T) {
	fr := &fakeRunner{}
	_, c := startAPI(t, Options{
		Slots: 1, Run: fr.run,
		Events: svclog.NewEventLog(256),
	})

	// First connection: watch job A to completion, then drop the stream.
	a, err := c.Submit(spec1("a"))
	if err != nil {
		t.Fatal(err)
	}
	var first []svclog.JobEvent
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	last, err := c.StreamEvents(ctx, 0, "", "", func(ev svclog.JobEvent) {
		first = append(first, ev)
		if ev.Job == a.ID && ev.Kind == svclog.EvDone {
			cancel()
		}
	})
	cancel()
	if err != nil && err != context.Canceled {
		t.Fatal(err)
	}
	if len(first) == 0 || last == 0 {
		t.Fatalf("first connection saw %d events, cursor %d", len(first), last)
	}
	if err := ValidateEventChain(jobChain(first, a.ID), 1); err != nil {
		t.Fatalf("job A chain over SSE: %v", err)
	}

	// While disconnected, job B runs to completion.
	b, err := c.Submit(spec1("b"))
	if err != nil {
		t.Fatal(err)
	}
	ctxW, cancelW := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelW()
	if st, err := c.Wait(ctxW, b.ID, 5*time.Millisecond); err != nil || st.State != JobDone {
		t.Fatalf("job B: %+v, %v", st, err)
	}

	// Reconnect with the cursor: the daemon replays everything missed.
	var second []svclog.JobEvent
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	_, err = c.StreamEvents(ctx2, last, "", "", func(ev svclog.JobEvent) {
		second = append(second, ev)
		if ev.Job == b.ID && ev.Kind == svclog.EvDone {
			cancel2()
		}
	})
	cancel2()
	if err != nil && err != context.Canceled {
		t.Fatal(err)
	}
	if len(second) == 0 {
		t.Fatal("reconnect replayed nothing")
	}
	if second[0].Seq != last+1 {
		t.Fatalf("reconnect replay starts at seq %d, want %d", second[0].Seq, last+1)
	}
	for i := 1; i < len(second); i++ {
		if second[i].Seq != second[i-1].Seq+1 {
			t.Fatalf("sequence gap across reconnect: %d -> %d", second[i-1].Seq, second[i].Seq)
		}
	}
	if err := ValidateEventChain(jobChain(second, b.ID), 1); err != nil {
		t.Fatalf("job B chain from replay: %v", err)
	}
}

// TestHTTPSubmitRetryHonorsPushback: SubmitRetry (the `pimdsm submit -wait`
// path) absorbs 429s by sleeping the server's hint and resubmitting, and
// gets in once the window clears.
func TestHTTPSubmitRetryHonorsPushback(t *testing.T) {
	fr := &fakeRunner{gate: make(chan struct{})}
	s, c := startAPI(t, Options{Slots: 1, QueueLimit: 1, Run: fr.run})
	if _, err := c.Submit(spec1("a")); err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, 1)
	if _, err := c.Submit(spec1("b")); err != nil {
		t.Fatal(err)
	}
	// Window is full: a plain submit must be rejected right now.
	if _, err := c.Submit(spec1("c")); err == nil {
		t.Fatal("over-window submit accepted")
	}
	// Free the slot shortly; the retrying submit should then get in.
	go func() {
		time.Sleep(30 * time.Millisecond)
		close(fr.gate)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, retries, err := c.SubmitRetry(ctx, spec1("c"), 100, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("retrying submit never admitted: %v (after %d retries)", err, retries)
	}
	if retries == 0 {
		t.Fatal("retrying submit saw no pushback despite a full window")
	}
	if fin, err := c.Wait(ctx, st.ID, 5*time.Millisecond); err != nil || fin.State != JobDone {
		t.Fatalf("retried job: %+v, %v", fin, err)
	}
}

func jobChain(events []svclog.JobEvent, id string) []svclog.JobEvent {
	var out []svclog.JobEvent
	for _, ev := range events {
		if ev.Job == id {
			out = append(out, ev)
		}
	}
	return out
}

// TestHTTPJobEventsEndpoint: the per-job endpoint serves the complete chain
// as JSON and as a Chrome trace_event document.
func TestHTTPJobEventsEndpoint(t *testing.T) {
	fr := &fakeRunner{}
	_, c := startAPI(t, Options{Slots: 1, Run: fr.run, Events: svclog.NewEventLog(64)})
	st, err := c.Submit(spec1("fft"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Wait(ctx, st.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	events, err := c.JobEvents(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateEventChain(events, 1); err != nil {
		t.Fatalf("chain: %v\n%+v", err, events)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/api/v1/jobs/%s/events?format=chrome", c.Base, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("chrome export: %v, %d events: %.120s", err, len(doc.TraceEvents), body)
	}
}

// TestHTTPMetricsPromParses: the exposition endpoint output passes the
// strict parser, including after traffic on routes with {id} patterns.
func TestHTTPMetricsPromParses(t *testing.T) {
	fr := &fakeRunner{}
	_, c := startAPI(t, Options{Slots: 1, Run: fr.run, Events: svclog.NewEventLog(64)})
	st, err := c.Submit(spec1("fft"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Wait(ctx, st.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	body, err := c.raw("/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	fams, err := svclog.ParsePromText(string(body))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, body)
	}
	for _, want := range []string{
		"aggsimd_jobs_submitted_total",
		"aggsimd_simulated_runs_total",
		"aggsimd_queue_depth",
		"aggsimd_http_requests_total",
		"aggsimd_http_request_duration_us",
	} {
		if fams[want] == nil {
			t.Fatalf("family %s missing from exposition", want)
		}
	}
	if fams["aggsimd_jobs_submitted_total"].Samples[0].Value < 1 {
		t.Fatalf("submitted counter did not move: %+v", fams["aggsimd_jobs_submitted_total"])
	}
}

// TestHTTPBadSpecFailsJob: a spec the machine rejects ends its job in the
// failed state carrying the machine's error, and the same daemon then serves
// a valid job (a panic in the job's goroutine would have taken the process down).
func TestHTTPBadSpecFailsJob(t *testing.T) {
	s, c := startAPI(t, Options{Slots: 1})
	good := ConfigSpec{Arch: "agg", App: "fft", Scale: 0.02, Threads: 8, Pressure: 0.75, DRatio: 1}
	for _, tc := range []struct {
		name string
		mod  func(*ConfigSpec)
	}{
		{"handler_scale -1", func(cs *ConfigSpec) { cs.HandlerScale = -1 }},
		{"handler_scale 1e30", func(cs *ConfigSpec) { cs.HandlerScale = 1e30 }},
		{"pmem_bytes 1<<62", func(cs *ConfigSpec) { cs.PMemBytes = 1 << 62 }},
		{"dmem_total 1<<62", func(cs *ConfigSpec) { cs.DMemTotal = 1 << 62 }},
		// These two crashed the daemon inside machine.Run before the sizing
		// bounds: a makeslice panic and an unrecoverable out-of-memory abort.
		{"1/1AGG swim pressure 1e-12", func(cs *ConfigSpec) {
			cs.App, cs.Scale, cs.Threads, cs.Pressure = "swim", 0.05, 32, 1e-12
		}},
		{"NUMA radix scale 1e9", func(cs *ConfigSpec) {
			cs.Arch, cs.App, cs.Scale, cs.Threads, cs.DRatio = "numa", "radix", 1e9, 32, 0
		}},
		// Every node's caches, memory and stream are allocated up front.
		{"threads 1<<20", func(cs *ConfigSpec) { cs.Threads = 1 << 20 }},
		{"threads MaxInt", func(cs *ConfigSpec) { cs.Threads = math.MaxInt }},
	} {
		bad := good
		tc.mod(&bad)
		_, wantErr := machine.Run(bad.Config())
		if wantErr == nil {
			t.Fatalf("%s: machine.Run accepted the spec", tc.name)
		}
		st, err := c.Submit(JobSpec{Configs: []ConfigSpec{bad}})
		if err != nil {
			t.Fatalf("%s: submit: %v", tc.name, err)
		}
		fin := waitJob(t, s, st.ID)
		if fin.State != JobFailed || !strings.Contains(fin.Error, wantErr.Error()) {
			t.Errorf("%s: job ended %s with error %q, want failed with %q", tc.name, fin.State, fin.Error, wantErr)
		}
	}
	res, err := machine.Run(good.Config())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(res)
	st, err := c.Submit(JobSpec{Configs: []ConfigSpec{good}})
	if err != nil {
		t.Fatalf("valid submit after failures: %v", err)
	}
	if fin := waitJob(t, s, st.ID); fin.State != JobDone {
		t.Fatalf("valid job after failures: %+v", fin)
	}
	if _, raw, err := c.Result(st.ID); err != nil || len(raw) != 1 || !bytes.Equal(raw[0], want) {
		t.Fatalf("valid job result (%v): %.200s", err, raw)
	}
}

// TestSubmitRejectsTrailingValue: POST /api/v1/jobs reads exactly one JSON
// value, whether the body takes the decoder's fast path or its
// encoding/json fallback (the escaped name); a second value is 400 and
// admits nothing.
func TestSubmitRejectsTrailingValue(t *testing.T) {
	s, c := startAPI(t, Options{Slots: 1, Run: (&fakeRunner{}).run})
	one := `{"configs":[{"arch":"agg","app":"fft","threads":8,"pressure":0.75,"dratio":1}]}`
	escaped := `{"name":"a\"b","configs":[{"arch":"agg","app":"fft","threads":8,"pressure":0.75,"dratio":1}]}`
	for _, body := range []string{one + " " + one, escaped + "\n" + escaped, one + "x"} {
		resp, err := http.Post("http://"+c.Base+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d: %s, want 400", body, resp.StatusCode, msg)
		}
	}
	if n := s.Stats().JobsSubmitted; n != 0 {
		t.Fatalf("%d jobs admitted, want none", n)
	}
}

// TestHTTPStatusBodiesMatchEncodingJSON: the submit and status replies are
// byte for byte what json.Encoder with two-space indent writes for the
// status they carry, and every SSE data line is what json.Marshal writes for
// its event, for a job name the fast path writes and for one that needs
// escaping. The resubmission of a cached batch is answered done.
func TestHTTPStatusBodiesMatchEncodingJSON(t *testing.T) {
	s, c := startAPI(t, Options{Slots: 1, Run: (&fakeRunner{}).run, Events: svclog.NewEventLog(0)})
	indented := func(body []byte) {
		t.Helper()
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		enc.Encode(st)
		if !bytes.Equal(body, want.Bytes()) {
			t.Fatalf("body\n%s\njson.Encoder\n%s", body, want.Bytes())
		}
	}
	post := func(spec JobSpec) JobStatus {
		t.Helper()
		buf, _ := json.Marshal(spec)
		resp, err := http.Post("http://"+c.Base+"/api/v1/jobs", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
		}
		indented(body)
		st, _ := decodeJobStatus(body)
		return st
	}
	for _, name := range []string{"plain", `x<y>&"z"`} {
		spec := spec1("fft")
		spec.Name = name
		first := post(spec)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if _, err := c.Wait(ctx, first.ID, 5*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		cancel()
		again := post(spec)
		if again.State != JobDone || again.CacheHits != 1 {
			t.Fatalf("cached resubmission answered %+v, want done with 1 hit", again)
		}
		for _, id := range []string{first.ID, again.ID} {
			body, err := c.raw("/api/v1/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			indented(body)
		}
	}

	// Replay every event so far over SSE; the stream stays open, so read
	// frames until the last event's.
	last := int(s.Events().Seq())
	sse := &http.Client{Timeout: 10 * time.Second}
	resp, err := sse.Get("http://" + c.Base + "/api/v1/events?last_event_id=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	seen := 0
	for seen < last && sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev svclog.JobEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatal(err)
		}
		if want, _ := json.Marshal(ev); data != string(want) {
			t.Fatalf("SSE data\n%s\njson.Marshal\n%s", data, want)
		}
		seen++
	}
	if seen < last {
		t.Fatalf("read %d SSE events, want %d: %v", seen, last, sc.Err())
	}
}
