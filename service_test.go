package pimdsm

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

// smallFig6Specs is a shrunken Figure 6 batch: real simulations, small
// enough for the test suite.
func smallFig6Specs(t *testing.T) []ConfigSpec {
	t.Helper()
	specs := Figure6Specs("fft", 4, 0.02)
	if len(specs) < 3 {
		t.Fatalf("Figure6Specs returned %d configs", len(specs))
	}
	return specs
}

func waitService(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	j, ok := s.Job(id)
	if !ok {
		t.Fatalf("job %s vanished", id)
	}
	select {
	case <-j.Done():
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s never finished", id)
	}
	return s.Status(j)
}

// TestServiceByteIdenticalToDirectRun is the cache-correctness contract:
// results served by the service — on the simulating miss AND on the cache
// hit — are byte-identical to encoding a direct Sweep.RunMany of the same
// configurations.
func TestServiceByteIdenticalToDirectRun(t *testing.T) {
	specs := smallFig6Specs(t)

	cfgs := make([]Config, len(specs))
	for i, sp := range specs {
		cfgs[i] = sp.Config()
	}
	direct, err := Sweep{Workers: 2}.RunMany(cfgs)
	if err != nil {
		t.Fatal(err)
	}

	s, err := NewServer(ServerOptions{Slots: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	check := func(label string, wantHits, wantSim int) {
		st, err := s.Submit(JobSpec{Name: label, Configs: specs})
		if err != nil {
			t.Fatal(err)
		}
		fin := waitService(t, s, st.ID)
		if fin.State != JobDone || fin.CacheHits != wantHits || fin.Simulated != wantSim {
			t.Fatalf("%s: %+v, want %d hits / %d simulated", label, fin, wantHits, wantSim)
		}
		j, _ := s.Job(st.ID)
		js, ok := s.Results(j)
		if !ok || len(js) != len(direct) {
			t.Fatalf("%s: %d served results vs %d direct", label, len(js), len(direct))
		}
		for i, r := range direct {
			want, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if string(js[i]) != string(want) {
				t.Fatalf("%s: config %d (%s/%s) served bytes differ from direct run",
					label, i, specs[i].Arch, specs[i].App)
			}
		}
	}
	check("miss-path", 0, len(specs))
	check("hit-path", len(specs), 0)

	if st := s.Stats(); st.SimulatedRuns != uint64(len(specs)) {
		t.Fatalf("second job re-simulated: %d runs for %d configs", st.SimulatedRuns, len(specs))
	}
}

// TestServiceSpansJob: a spans job records per-phase transaction spans for
// the runs it actually simulates.
func TestServiceSpansJob(t *testing.T) {
	s, err := NewServer(ServerOptions{Slots: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	spec := JobSpec{
		Spans:   true,
		Configs: []ConfigSpec{{Arch: "agg", App: "fft", Scale: 0.02, Threads: 4, Pressure: 0.75, DRatio: 1}},
	}
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitService(t, s, st.ID); fin.State != JobDone {
		t.Fatalf("spans job: %+v", fin)
	}
	j, _ := s.Job(st.ID)
	sp := s.Spans(j)
	if sp == nil || sp.Retired() == 0 {
		t.Fatal("spans job recorded no spans")
	}
}
