package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"pimdsm/internal/machine"
)

// BenchmarkResultHit times one cache-hit request end to end against an
// httptest daemon: submit a 7-config Figure-6 batch that is already cached,
// wait for the job to finish, fetch its results with Client.Result. The
// results are real simulator output, so the response is full size (about
// 4 KB per config at this scale).
func BenchmarkResultHit(b *testing.B) {
	s, err := New(Options{Workers: 1})
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

	spec := JobSpec{Configs: fig6Batch("fft", 32, 0.02)}
	want := make([][]byte, len(spec.Configs))
	for i, cs := range spec.Configs {
		res, err := machine.Run(cs.canonical().Config())
		if err != nil {
			b.Fatal(err)
		}
		want[i], _ = json.Marshal(res)
	}
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
