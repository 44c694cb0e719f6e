package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"pimdsm/internal/machine"
	"pimdsm/internal/obs/svclog"
)

// fig6Results is one svc-hit request's batch, the 7-config Figure-6 fft
// batch at 32 threads and scale 0.02, with each config's canonical result
// JSON from a direct run.
func fig6Results(tb testing.TB) (JobSpec, [][]byte) {
	spec := JobSpec{Configs: fig6Batch("fft", 32, 0.02)}
	want := make([][]byte, len(spec.Configs))
	for i, cs := range spec.Configs {
		res, err := machine.Run(cs.canonical().Config())
		if err != nil {
			tb.Fatal(err)
		}
		want[i], _ = json.Marshal(res)
	}
	return spec, want
}

// BenchmarkResultHit times one cache-hit request end to end against an
// httptest daemon: submit a 7-config Figure-6 batch that is already cached,
// wait for the job to finish, fetch its results with Client.Result. The
// results are real simulator output, so the response is full size (about
// 4 KB per config at this scale).
func BenchmarkResultHit(b *testing.B) {
	s, err := New(Options{Slots: 1})
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(NewAPI(s, nil).Handler())
	defer func() {
		hs.Close()
		s.Shutdown(context.Background())
	}()
	c := NewClient(hs.URL)
	c.HTTP = hs.Client()

	spec, want := fig6Results(b)
	hit := func() (JobStatus, []json.RawMessage) {
		st, err := c.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		j, _ := s.Job(st.ID)
		<-j.Done()
		st, results, err := c.Result(st.ID)
		if err != nil {
			b.Fatal(err)
		}
		return st, results
	}
	hit() // simulate and cache the batch

	st, results := hit()
	if st.CacheHits != len(want) {
		b.Fatalf("%d of %d configs were cache hits", st.CacheHits, len(want))
	}
	for i := range want {
		if !bytes.Equal(results[i], want[i]) {
			b.Fatalf("config %d: served bytes differ from a direct run", i)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		hit()
	}
}

// BenchmarkDecodeResultEnvelope times the client's half of a cache hit in
// isolation: decoding the GET .../result body of one Figure-6 batch (about
// 30 KB) into its job status and result sub-slices.
func BenchmarkDecodeResultEnvelope(b *testing.B) {
	_, results := fig6Results(b)
	at := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	st := JobStatus{ID: "j1", State: JobDone, Total: 7, Done: 7, CacheHits: 7,
		SubmittedAt: at, StartedAt: &at, FinishedAt: &at}
	bufs, err := resultEnvelopeBody(st, results)
	if err != nil {
		b.Fatal(err)
	}
	var body bytes.Buffer
	bufs.WriteTo(&body)
	env, err := decodeResultEnvelope(body.Bytes())
	if err != nil || len(env.Results) != len(results) {
		b.Fatalf("decoded %d results (%v), want %d", len(env.Results), err, len(results))
	}

	b.SetBytes(int64(body.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := decodeResultEnvelope(body.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
}

// The codec benchmarks time each hand-written codec on one svc-hit request's
// values: the 7-config Figure-6 submission, its done status, and one of its
// cache_hit events.

var (
	benchAt     = time.Date(2026, 3, 1, 12, 0, 0, 123456789, time.UTC)
	benchSpec   = JobSpec{Configs: fig6Batch("fft", 32, 0.02)}
	benchStatus = JobStatus{ID: "j-000042", State: JobDone, Total: 7, Done: 7, CacheHits: 7,
		SubmittedAt: benchAt, StartedAt: &benchAt, FinishedAt: &benchAt}
	benchEvent = svclog.JobEvent{Seq: 12345, Job: "j-000042", Kind: svclog.EvCacheHit, At: benchAt,
		SinceSubmitUS: 87, QueueDepth: 0, Running: 1, Config: 6}
	benchSink []byte
)

func BenchmarkAppendJobSpec(b *testing.B) {
	b.ReportAllocs()
	for range b.N {
		benchSink, _ = appendJobSpec(benchSink[:0], benchSpec)
	}
}

func BenchmarkDecodeJobSpec(b *testing.B) {
	body, _ := json.Marshal(benchSpec)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for range b.N {
		if _, err := decodeJobSpec(body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendJobStatus(b *testing.B) {
	b.ReportAllocs()
	for range b.N {
		benchSink, _ = appendJobStatus(benchSink[:0], benchStatus, true)
	}
}

func BenchmarkDecodeJobStatus(b *testing.B) {
	body, _ := json.MarshalIndent(benchStatus, "", "  ")
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for range b.N {
		if _, err := decodeJobStatus(body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendJobEvent(b *testing.B) {
	b.ReportAllocs()
	for range b.N {
		benchSink, _ = svclog.AppendJobEvent(benchSink[:0], benchEvent)
	}
}

func BenchmarkDecodeJobEvent(b *testing.B) {
	body, _ := json.Marshal(benchEvent)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for range b.N {
		if _, err := svclog.DecodeJobEvent(body); err != nil {
			b.Fatal(err)
		}
	}
}
