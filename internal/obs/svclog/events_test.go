package svclog

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"sync"
	"testing"
	"time"
)

func ev(job string, kind JobEventKind) JobEvent {
	return JobEvent{Job: job, Kind: kind, At: time.Unix(100, 0), Config: -1}
}

func TestEventLogSequenceAndPerJob(t *testing.T) {
	l := NewEventLog(8)
	for i := 0; i < 5; i++ {
		got := l.Append(ev("j-1", EvSimulated))
		if got.Seq != uint64(i+1) {
			t.Fatalf("append %d assigned seq %d", i, got.Seq)
		}
	}
	l.Append(ev("j-2", EvSubmitted))
	if l.Seq() != 6 {
		t.Fatalf("head seq = %d", l.Seq())
	}
	if got := l.Job("j-1"); len(got) != 5 {
		t.Fatalf("j-1 chain has %d events", len(got))
	}
	if got := l.Job("j-2"); len(got) != 1 || got[0].Seq != 6 {
		t.Fatalf("j-2 chain: %+v", got)
	}
	since, head := l.Since(4)
	if head != 6 || len(since) != 2 || since[0].Seq != 5 || since[1].Seq != 6 {
		t.Fatalf("Since(4) = %+v head %d", since, head)
	}
}

func TestEventLogRingRotation(t *testing.T) {
	l := NewEventLog(4)
	for i := 0; i < 10; i++ {
		l.Append(ev("j", EvSimulated))
	}
	since, head := l.Since(0)
	if head != 10 {
		t.Fatalf("head = %d", head)
	}
	// Only the last 4 survive the ring; the caller sees the gap via Seq.
	if len(since) != 4 || since[0].Seq != 7 || since[3].Seq != 10 {
		t.Fatalf("rotated Since(0): %+v", since)
	}
	// Per-job chains are complete regardless of ring rotation.
	if got := l.Job("j"); len(got) != 10 {
		t.Fatalf("per-job chain lost events under rotation: %d", len(got))
	}
}

func TestEventLogSubscribe(t *testing.T) {
	l := NewEventLog(16)
	ch, cancel := l.Subscribe(4)
	l.Append(ev("j", EvSubmitted))
	l.Append(ev("j", EvQueued))
	if e := <-ch; e.Kind != EvSubmitted || e.Seq != 1 {
		t.Fatalf("first delivery: %+v", e)
	}
	if e := <-ch; e.Kind != EvQueued {
		t.Fatalf("second delivery: %+v", e)
	}
	// A full subscriber buffer drops (counted), never blocks the appender.
	for i := 0; i < 10; i++ {
		l.Append(ev("j", EvSimulated))
	}
	if st := l.Stats(); st.Dropped == 0 || st.Subscribers != 1 {
		t.Fatalf("stats after overflow: %+v", st)
	}
	cancel()
	if _, open := <-ch; open {
		// drain until closed
		for range ch {
		}
	}
	if st := l.Stats(); st.Subscribers != 0 {
		t.Fatalf("cancel left a subscriber: %+v", st)
	}
	cancel() // idempotent
}

func TestWriteChromeJSON(t *testing.T) {
	base := time.Unix(1000, 0)
	events := []JobEvent{
		{Seq: 1, Job: "j-1", Kind: EvSubmitted, At: base, Config: -1},
		{Seq: 2, Job: "j-1", Kind: EvStarted, At: base.Add(time.Millisecond), Config: -1, QueueDepth: 1},
		{Seq: 3, Job: "j-1", Kind: EvSimulated, At: base.Add(2 * time.Millisecond), Config: 0, Cycles: 123},
		{Seq: 4, Job: "j-1", Kind: EvDone, At: base.Add(3 * time.Millisecond), Config: -1, SinceSubmitUS: 3000},
	}
	var buf bytes.Buffer
	if err := WriteChromeJSON(&buf, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not JSON: %v\n%s", err, buf.String())
	}
	// 4 instants plus the job-life "X" span emitted at the terminal event.
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("exported %d trace events, want 5", len(doc.TraceEvents))
	}
	var sawSpan bool
	for _, te := range doc.TraceEvents {
		if te["ph"] == "X" {
			sawSpan = true
			if te["dur"].(float64) != 3000 {
				t.Fatalf("job span dur = %v, want 3000us", te["dur"])
			}
		}
	}
	if !sawSpan {
		t.Fatal("no job-life X span in export")
	}
}

// TestEventLogChainRoundTrip: a packed chain rebuilds exactly the events
// Append returned — monotonic clock reading, unknown kinds, negative configs
// and full-width counters included — before and after its terminal event,
// and so renders the same per-job endpoint bodies.
func TestEventLogChainRoundTrip(t *testing.T) {
	l := NewEventLog(4) // smaller than the chains: they must not depend on the ring
	jobs := []struct{ id, tenant string }{{"j-000001", ""}, {"j-000002", "acme"}, {"j-000003", "globex"}}
	kinds := []JobEventKind{EvSubmitted, EvQueued, EvStarted, EvCacheHit, EvJoined,
		EvSimulated, EvPersisted, "rebalanced"}
	want := map[string][]JobEvent{}
	for k, kind := range kinds {
		for n, j := range jobs {
			e := JobEvent{
				Job: j.id, Kind: kind, At: time.Now(), Tenant: j.tenant,
				SinceSubmitUS: int64(k*1000 + n),
				QueueDepth:    math.MaxInt/2 + k, Running: math.MaxInt - n,
				Config: k - 1, Cycles: uint64(k) << 40,
			}
			if kind == EvSubmitted || kind == "rebalanced" {
				e.Detail = "detail " + j.id
			}
			want[j.id] = append(want[j.id], l.Append(e))
		}
	}
	check := func(phase string) {
		t.Helper()
		for _, j := range jobs {
			got := l.Job(j.id)
			if len(got) != len(want[j.id]) {
				t.Fatalf("%s: %s has %d events, want %d", phase, j.id, len(got), len(want[j.id]))
			}
			for i := range got {
				if got[i] != want[j.id][i] {
					t.Fatalf("%s: %s event %d:\n got %+v\nwant %+v", phase, j.id, i, got[i], want[j.id][i])
				}
			}
			for _, render := range []func([]JobEvent) ([]byte, error){
				func(evs []JobEvent) ([]byte, error) {
					return json.Marshal(struct {
						Job    string     `json:"job"`
						Events []JobEvent `json:"events"`
					}{j.id, evs})
				},
				func(evs []JobEvent) ([]byte, error) {
					var buf bytes.Buffer
					err := WriteChromeJSON(&buf, evs)
					return buf.Bytes(), err
				},
			} {
				a, errA := render(got)
				b, errB := render(want[j.id])
				if errA != nil || errB != nil || !bytes.Equal(a, b) {
					t.Fatalf("%s: %s bodies differ (%v, %v)\n%s\n%s", phase, j.id, errA, errB, a, b)
				}
			}
		}
	}
	check("before terminal")
	for n, kind := range []JobEventKind{EvDone, EvFailed, EvAborted} {
		j := jobs[n]
		want[j.id] = append(want[j.id], l.Append(JobEvent{Job: j.id, Kind: kind,
			At: time.Now(), Tenant: j.tenant, Config: -1, Detail: string(kind)}))
	}
	check("after terminal")
	if got := l.Job("j-000004"); len(got) != 0 {
		t.Fatalf("unknown job: %+v", got)
	}
}

// TestEventLogConcurrent is for the race detector: appenders across jobs
// while Job, Since and Subscribe readers run, then every chain is complete
// and in sequence order.
func TestEventLogConcurrent(t *testing.T) {
	const appenders, perJob = 4, 200
	l := NewEventLog(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(3)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				l.Job("j-0")
			}
		}
	}()
	go func() {
		defer readers.Done()
		var after uint64
		for {
			select {
			case <-stop:
				return
			default:
				_, after = l.Since(after / 2)
			}
		}
	}()
	go func() {
		defer readers.Done()
		for {
			ch, cancel := l.Subscribe(8)
			select {
			case <-ch:
			case <-stop:
				cancel()
				return
			}
			cancel()
		}
	}()
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(job string) {
			defer wg.Done()
			for i := 0; i < perJob; i++ {
				kind := EvSimulated
				if i == perJob-1 {
					kind = EvDone
				}
				l.Append(JobEvent{Job: job, Kind: kind, At: time.Now(), Config: i})
			}
		}("j-" + strconv.Itoa(a))
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	for a := 0; a < appenders; a++ {
		evs := l.Job("j-" + strconv.Itoa(a))
		if len(evs) != perJob {
			t.Fatalf("job %d: %d events, want %d", a, len(evs), perJob)
		}
		for i, e := range evs {
			if e.Config != i || (i > 0 && e.Seq <= evs[i-1].Seq) {
				t.Fatalf("job %d event %d out of order: %+v", a, i, e)
			}
		}
	}
	if st := l.Stats(); st.Appended != appenders*perJob || st.Subscribers != 0 {
		t.Fatalf("stats: %+v", st)
	}
}
