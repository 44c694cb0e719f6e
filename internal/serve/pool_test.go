package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"pimdsm/internal/cluster"
	"pimdsm/internal/machine"
	"pimdsm/internal/obs/svclog"
	"pimdsm/internal/sim"
	"pimdsm/internal/stats"
)

// barrierRunner holds every run at a barrier until the test lets it go, and
// counts the runs in flight and their peak.
type barrierRunner struct {
	arrived        chan int      // each held run's thread count, on arrival
	release        chan struct{} // one send lets one held run finish
	stop           chan struct{} // closed at cleanup: a failed test's held runs finish
	inFlight, peak atomic.Int64
}

// newBarrierRunner's arrival buffer holds more runs than any test submits,
// so a run never blocks on reporting its arrival.
func newBarrierRunner() *barrierRunner {
	return &barrierRunner{arrived: make(chan int, 64), release: make(chan struct{}), stop: make(chan struct{})}
}

func (b *barrierRunner) run(cfg machine.Config) (*machine.Result, error) {
	n := b.inFlight.Add(1)
	for p := b.peak.Load(); n > p && !b.peak.CompareAndSwap(p, n); p = b.peak.Load() {
	}
	b.arrived <- cfg.Threads
	select {
	case <-b.release:
	case <-b.stop:
	}
	b.inFlight.Add(-1)
	return poolResult(cfg), nil
}

// drain lets total runs through the barrier one at a time. Before each
// release exactly width runs (or all that remain) must be held: a run beyond
// the budget would reach the barrier during the quiet window and fail here.
func (b *barrierRunner) drain(t *testing.T, total, width int) {
	t.Helper()
	arrived := 0
	for released := 0; released < total; released++ {
		for arrived < released+width && arrived < total {
			select {
			case <-b.arrived:
				arrived++
			case <-time.After(10 * time.Second):
				t.Fatalf("only %d of %d runs reached the barrier (%d released)", arrived, total, released)
			}
		}
		select {
		case th := <-b.arrived:
			t.Fatalf("run threads=%d started with %d runs already held: more than %d in flight",
				th, arrived-released, width)
		case <-time.After(20 * time.Millisecond):
		}
		b.release <- struct{}{}
	}
}

// poolResult is a fake result that depends only on its config.
func poolResult(cfg machine.Config) *machine.Result {
	res := &machine.Result{Arch: cfg.Arch, App: cfg.App.Name, Threads: cfg.Threads,
		PerThread: make([]stats.Thread, cfg.Threads)}
	res.Breakdown.Exec = sim.Time(1000*cfg.Threads + len(cfg.App.Name))
	return res
}

// missBatch is n configs with distinct keys: threads first, first+1, ….
func missBatch(name string, first, n int) JobSpec {
	spec := JobSpec{Name: name}
	for k := 0; k < n; k++ {
		spec.Configs = append(spec.Configs,
			ConfigSpec{Arch: "agg", App: "fft", Threads: first + k, Pressure: 0.75, DRatio: 1})
	}
	return spec
}

// newPoolServer starts a server whose shutdown first lets any run still
// held at b's barrier finish (b may be nil).
func newPoolServer(t *testing.T, opt Options, b *barrierRunner) *Server {
	t.Helper()
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if b != nil {
			close(b.stop)
		}
		s.Shutdown(context.Background())
	})
	return s
}

func checkSlots(t *testing.T, s *Server, budget int, peak int64) {
	t.Helper()
	st := s.Stats()
	if st.SimSlots != budget || st.SimSlotsInUse != 0 || st.SimSlotsHighWater != peak {
		t.Fatalf("slots %d, in use %d, high water %d; want %d, 0, %d",
			st.SimSlots, st.SimSlotsInUse, st.SimSlotsHighWater, budget, peak)
	}
}

// TestPoolOneJobFillsEverySlot: with a budget of 2, a lone job's 7 misses
// run two at a time, never three.
func TestPoolOneJobFillsEverySlot(t *testing.T) {
	b := newBarrierRunner()
	s := newPoolServer(t, Options{Slots: 2, Run: b.run}, b)
	st, err := s.Submit(missBatch("seven", 1, 7))
	if err != nil {
		t.Fatal(err)
	}
	b.drain(t, 7, 2)
	if fin := waitJob(t, s, st.ID); fin.State != JobDone || fin.Simulated != 7 {
		t.Fatalf("job finished %+v, want done with 7 simulated", fin)
	}
	if got := b.peak.Load(); got != 2 {
		t.Fatalf("peak runs in flight %d, want 2", got)
	}
	checkSlots(t, s, 2, 2)
}

// TestPoolConcurrentJobsShareSlots: two jobs with 4 misses each on a budget
// of 2 never have more than 2 runs in flight between them.
func TestPoolConcurrentJobsShareSlots(t *testing.T) {
	b := newBarrierRunner()
	s := newPoolServer(t, Options{Slots: 2, Run: b.run}, b)
	var ids []string
	for i, spec := range []JobSpec{missBatch("a", 1, 4), missBatch("b", 5, 4)} {
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, st.ID)
	}
	b.drain(t, 8, 2)
	for _, id := range ids {
		if fin := waitJob(t, s, id); fin.State != JobDone || fin.Simulated != 4 {
			t.Fatalf("job %s finished %+v, want done with 4 simulated", id, fin)
		}
	}
	if got := b.peak.Load(); got != 2 {
		t.Fatalf("peak runs in flight %d, want 2", got)
	}
	checkSlots(t, s, 2, 2)
}

// TestPoolObservedJobsRunOneAtATime: a spans or telemetry job shares one
// span recorder across its runs, so its configs take one slot at a time
// even with a free second slot.
func TestPoolObservedJobsRunOneAtATime(t *testing.T) {
	for _, mode := range []string{"spans", "telemetry"} {
		t.Run(mode, func(t *testing.T) {
			b := newBarrierRunner()
			s := newPoolServer(t, Options{Slots: 2, Run: b.run}, b)
			spec := missBatch(mode, 1, 3)
			spec.Spans = mode == "spans"
			spec.Telemetry = mode == "telemetry"
			st, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			b.drain(t, 3, 1)
			if fin := waitJob(t, s, st.ID); fin.State != JobDone || fin.Simulated != 3 {
				t.Fatalf("job finished %+v, want done with 3 simulated", fin)
			}
			if got := b.peak.Load(); got != 1 {
				t.Fatalf("peak runs in flight %d, want 1", got)
			}
			checkSlots(t, s, 2, 1)
		})
	}
}

// shuffledRun finishes later configs first, so at a budget above 1 results
// land out of config order.
func shuffledRun(cfg machine.Config) (*machine.Result, error) {
	time.Sleep(time.Duration(10-cfg.Threads) * time.Millisecond)
	return poolResult(cfg), nil
}

// TestPoolResultBytesIndependentOfBudget: a 7-miss job serves the same bytes
// at a budget of 2 as at a budget of 1, each equal to its own config's
// result.
func TestPoolResultBytesIndependentOfBudget(t *testing.T) {
	spec := missBatch("bytes", 1, 7)
	served := map[int][][]byte{}
	for _, budget := range []int{1, 2} {
		s := newPoolServer(t, Options{Slots: budget, Run: shuffledRun}, nil)
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if fin := waitJob(t, s, st.ID); fin.State != JobDone {
			t.Fatalf("budget %d: job finished %+v", budget, fin)
		}
		j, _ := s.Job(st.ID)
		js, _ := s.Results(j)
		served[budget] = js
	}
	for i, cs := range spec.Configs {
		want, err := json.Marshal(poolResult(cs.canonical().Config()))
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int{1, 2} {
			if string(served[budget][i]) != string(want) {
				t.Fatalf("budget %d, config %d: served %s, want %s", budget, i, served[budget][i], want)
			}
		}
	}
}

// TestPoolEventChainPerConfig: runs finishing out of order still leave one
// simulated and one persisted event per config, persisted after simulated,
// and the terminal event last.
func TestPoolEventChainPerConfig(t *testing.T) {
	events := svclog.NewEventLog(0)
	s := newPoolServer(t, Options{Slots: 2, Run: shuffledRun, Events: events}, nil)
	const n = 7
	st, err := s.Submit(missBatch("chain", 1, n))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, st.ID)
	chain := events.Job(st.ID)
	if err := ValidateEventChain(chain, n); err != nil {
		t.Fatalf("%v\n%v", err, chainOf(chain))
	}
	if last := chain[len(chain)-1]; last.Kind != svclog.EvDone {
		t.Fatalf("chain ends with %s, want %s", last.Kind, svclog.EvDone)
	}
	simulated, persisted := map[int]int{}, map[int]int{}
	for _, ev := range chain {
		switch ev.Kind {
		case svclog.EvSimulated:
			simulated[ev.Config]++
		case svclog.EvPersisted:
			if simulated[ev.Config] != 1 {
				t.Fatalf("config %d persisted before it was simulated: %v", ev.Config, chainOf(chain))
			}
			persisted[ev.Config]++
		}
	}
	for i := 0; i < n; i++ {
		if simulated[i] != 1 || persisted[i] != 1 {
			t.Fatalf("config %d: %d simulated, %d persisted events; want 1 and 1: %v",
				i, simulated[i], persisted[i], chainOf(chain))
		}
	}
}

// TestPoolClusterComputeTakesASlot: a peer's forwarded compute waits for the
// slot a local job holds instead of simulating beside it.
func TestPoolClusterComputeTakesASlot(t *testing.T) {
	b := newBarrierRunner()
	s := newPoolServer(t, Options{Slots: 1, Run: b.run}, b)
	node, err := cluster.New(cluster.Config{Name: "pool", Self: "pool-node:1", HeartbeatEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	s.AttachCluster(node)
	h := NewAPI(s, nil).Handler()

	st, err := s.Submit(missBatch("local", 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	peer := missBatch("", 2, 1).Configs[0]
	body, _ := json.Marshal(clusterComputeRequest{Spec: peer, Key: fmt.Sprintf("%016x", peer.Key(0))})
	code := make(chan int, 1)
	go func() {
		rec := peerRequest(h, "pool", "POST", "/api/v1/cluster/compute", body)
		code <- rec.Code
	}()
	b.drain(t, 2, 1)
	if got := <-code; got != http.StatusOK {
		t.Fatalf("compute answered HTTP %d, want 200", got)
	}
	if fin := waitJob(t, s, st.ID); fin.State != JobDone {
		t.Fatalf("local job finished %+v", fin)
	}
	if got := b.peak.Load(); got != 1 {
		t.Fatalf("peak runs in flight %d, want 1", got)
	}
	checkSlots(t, s, 1, 1)
}
