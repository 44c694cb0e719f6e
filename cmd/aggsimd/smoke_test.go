package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pimdsm"
)

// daemon runs realMain in a goroutine, exactly as a deployment would run
// the binary: flags in, signal to stop, exit code out.
type daemon struct {
	addr string
	stop chan os.Signal
	exit chan int
	logs *bytes.Buffer
}

func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	addrCh := make(chan string, 1)
	prev := notifyListening
	notifyListening = func(addr string) { addrCh <- addr }
	t.Cleanup(func() { notifyListening = prev })

	d := &daemon{stop: make(chan os.Signal, 1), exit: make(chan int, 1), logs: &bytes.Buffer{}}
	logs := d.logs
	go func() { d.exit <- realMain(args, logs, d.stop) }()
	select {
	case d.addr = <-addrCh:
	case code := <-d.exit:
		t.Fatalf("daemon exited %d before listening:\n%s", code, logs.String())
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon never started listening:\n%s", logs.String())
	}
	// Listening is not serving: gate on readiness, like a deployment's
	// health check would, so tests never race the daemon's startup.
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := http.Get("http://" + d.addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became ready: err=%v\n%s", err, logs.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	return d
}

// shutdown delivers the signal a SIGTERM would and waits for a clean exit.
func (d *daemon) shutdown(t *testing.T) {
	t.Helper()
	d.stop <- os.Interrupt
	select {
	case code := <-d.exit:
		if code != 0 {
			t.Fatalf("daemon exited %d, want graceful 0", code)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon never exited after the stop signal")
	}
}

func wait(t *testing.T, c *pimdsm.ServiceClient, id string) pimdsm.JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := c.Wait(ctx, id, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("waiting for %s: %v", id, err)
	}
	return st
}

// TestServeSmoke is the `make serve-smoke` body and the E2E acceptance run:
// real simulations through the daemon, byte-identical cache serving proven
// by the engine-cycle counters, a 4x-admission-window submit storm bounded
// by typed rejections, graceful shutdown, and a cache index that survives a
// daemon restart.
func TestServeSmoke(t *testing.T) {
	const window = 2
	cacheFile := filepath.Join(t.TempDir(), "aggsimd.cache")
	// -slots 1 is a budget of 1 simulation slot, so a storm job's wall time
	// is the sum of its simulations — the queue genuinely fills even on a
	// machine with many cores.
	d := startDaemon(t,
		"-addr", "127.0.0.1:0",
		"-slots", "1",
		"-queue", fmt.Sprint(window),
		"-cache-file", cacheFile,
	)
	c := pimdsm.NewServiceClient(d.addr)

	// 1. A small Figure 6 batch, simulated for real.
	fig6 := pimdsm.JobSpec{Name: "fig6-fft", Configs: pimdsm.Figure6Specs("fft", 4, 0.02)}
	n := len(fig6.Configs)
	first, err := c.Submit(fig6)
	if err != nil {
		t.Fatal(err)
	}
	if st := wait(t, c, first.ID); st.State != pimdsm.JobDone || st.Simulated != n {
		t.Fatalf("first batch: %+v, want %d simulated", st, n)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	runsAfterFirst, cyclesAfterFirst := stats.SimulatedRuns, stats.SimulatedCycles
	if runsAfterFirst != uint64(n) || cyclesAfterFirst == 0 {
		t.Fatalf("engine counters after first batch: %d runs, %d cycles", runsAfterFirst, cyclesAfterFirst)
	}
	_, firstRaw, err := c.Result(first.ID)
	if err != nil {
		t.Fatal(err)
	}

	// 2. The identical resubmission is served entirely from cache: same
	// bytes, and the engine-cycle counters do not move.
	second, err := c.Submit(fig6)
	if err != nil {
		t.Fatal(err)
	}
	if st := wait(t, c, second.ID); st.CacheHits != n || st.Simulated != 0 {
		t.Fatalf("resubmission: %+v, want %d cache hits and 0 simulated", st, n)
	}
	_, secondRaw, err := c.Result(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i := range firstRaw {
		if !bytes.Equal(firstRaw[i], secondRaw[i]) {
			t.Fatalf("config %d: cache served different bytes than the original run", i)
		}
	}
	stats, _ = c.Stats()
	if stats.SimulatedRuns != runsAfterFirst || stats.SimulatedCycles != cyclesAfterFirst {
		t.Fatalf("resubmission re-simulated: %d runs %d cycles, was %d/%d",
			stats.SimulatedRuns, stats.SimulatedCycles, runsAfterFirst, cyclesAfterFirst)
	}

	// 3. Submit storm: 4x the admission window of distinct (uncached) jobs.
	// A slower blocker job pins the single slot first, so the storm can
	// only queue — and past the window it must be rejected immediately with
	// a typed retry-after.
	// The blocker is a 10-run serial batch, long enough that it is still
	// simulating while the whole storm below is submitted.
	var blockerCfgs []pimdsm.ConfigSpec
	for p := 0; p < 10; p++ {
		blockerCfgs = append(blockerCfgs, pimdsm.ConfigSpec{
			Arch: "agg", App: "ocean", Scale: 0.5, Threads: 16,
			Pressure: 0.30 + 0.04*float64(p), DRatio: 1,
		})
	}
	blocker, err := c.Submit(pimdsm.JobSpec{Name: "blocker", Configs: blockerCfgs})
	if err != nil {
		t.Fatal(err)
	}
	// Don't start the storm until the blocker provably holds the slot.
	for deadline := time.Now().Add(10 * time.Second); ; {
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Running >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocker never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The storm is a concurrent burst: all submissions hit the daemon while
	// the blocker still holds the one slot, so nothing can drain between
	// them and the window bound is exact.
	storm := 4 * window
	type outcome struct {
		id  string
		err error
	}
	outcomes := make(chan outcome, storm)
	for i := 0; i < storm; i++ {
		go func(i int) {
			st, err := c.Submit(pimdsm.JobSpec{
				Name: fmt.Sprintf("storm-%d", i),
				Configs: []pimdsm.ConfigSpec{{
					Arch: "agg", App: "ocean", Scale: 0.1, Threads: 8,
					Pressure: 0.30 + 0.01*float64(i), DRatio: 1,
				}},
			})
			outcomes <- outcome{id: st.ID, err: err}
		}(i)
	}
	accepted, rejected := []string{}, 0
	for i := 0; i < storm; i++ {
		o := <-outcomes
		if o.err == nil {
			accepted = append(accepted, o.id)
			continue
		}
		var be *pimdsm.BusyError
		if !errors.As(o.err, &be) {
			t.Fatalf("storm submit: %v, want *BusyError", o.err)
		}
		if be.RetryAfter < time.Second {
			t.Fatalf("storm submit: retry-after %v below the 1s floor", be.RetryAfter)
		}
		rejected++
	}
	// The blocker holds the slot for the whole burst, so at most the
	// window can be accepted (one job of slack if the blocker retires
	// mid-burst).
	if rejected < storm-window-1 || len(accepted) > window+1 {
		st, _ := c.Stats()
		t.Fatalf("storm of %d: %d accepted, %d rejected — admission window not bounding the queue (stats %+v)",
			storm, len(accepted), rejected, st)
	}
	stats, _ = c.Stats()
	if stats.JobsRejected < uint64(rejected) {
		t.Fatalf("server counted %d rejections, client saw %d", stats.JobsRejected, rejected)
	}
	for _, id := range append(accepted, blocker.ID) {
		wait(t, c, id)
	}

	// 4. Graceful shutdown persists the cache index.
	d.shutdown(t)
	if _, err := os.Stat(cacheFile); err != nil {
		t.Fatalf("cache index not persisted: %v", err)
	}

	// 5. A restarted daemon serves the same batch from the reloaded index
	// without simulating anything.
	d2 := startDaemon(t, "-addr", "127.0.0.1:0", "-cache-file", cacheFile)
	c2 := pimdsm.NewServiceClient(d2.addr)
	third, err := c2.Submit(fig6)
	if err != nil {
		t.Fatal(err)
	}
	if st := wait(t, c2, third.ID); st.CacheHits != n || st.Simulated != 0 {
		t.Fatalf("post-restart batch: %+v, want %d hits from the persisted index", st, n)
	}
	_, thirdRaw, err := c2.Result(third.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i := range firstRaw {
		if !bytes.Equal(firstRaw[i], thirdRaw[i]) {
			t.Fatalf("config %d: restarted daemon served different bytes", i)
		}
	}
	stats2, _ := c2.Stats()
	if stats2.SimulatedRuns != 0 {
		t.Fatalf("restarted daemon simulated %d runs for a fully cached batch", stats2.SimulatedRuns)
	}
	d2.shutdown(t)
}

// TestSmokeMetricsArtifact: a metrics job serves a registry artifact over
// HTTP even when every result came from the cache.
func TestSmokeMetricsArtifact(t *testing.T) {
	d := startDaemon(t, "-addr", "127.0.0.1:0")
	defer d.shutdown(t)
	c := pimdsm.NewServiceClient(d.addr)
	spec := pimdsm.JobSpec{
		Metrics: true,
		Configs: []pimdsm.ConfigSpec{{Arch: "numa", App: "fft", Scale: 0.02, Threads: 4, Pressure: 0.75}},
	}
	st, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	wait(t, c, st.ID)
	mb, err := c.Metrics(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(mb) || len(mb) == 0 {
		t.Fatalf("metrics artifact invalid: %.80s", mb)
	}

	// Same config again (cache hit): metrics are folded from the cached
	// result, so the artifact is identical.
	spec.Metrics = true
	st2, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if fin := wait(t, c, st2.ID); fin.CacheHits != 1 {
		t.Fatalf("second metrics job: %+v", fin)
	}
	mb2, err := c.Metrics(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mb, mb2) {
		t.Fatal("metrics folded from a cached result differ from the simulated run's")
	}
}

// TestTelemetrySmoke is the `make telemetry-smoke` body: the flight recorder
// end to end through a real daemon. Every job is head-sampled into the
// recorder (-telemetry-sample 1), results stay byte-identical to a direct
// run with the recorder on, all three artifacts serve over HTTP, the
// perf-diff engine names a dominant phase between two architectures, and a
// daemon restart with the same artifact dir still serves the original flight
// record for a resubmission that is a pure cache hit.
func TestTelemetrySmoke(t *testing.T) {
	tmp := t.TempDir()
	cacheFile := filepath.Join(tmp, "aggsimd.cache")
	artDir := filepath.Join(tmp, "artifacts")
	flags := []string{
		"-addr", "127.0.0.1:0",
		"-telemetry-sample", "1",
		"-cache-file", cacheFile, "-artifact-dir", artDir,
	}
	d := startDaemon(t, flags...)
	c := pimdsm.NewServiceClient(d.addr)

	// Two runs of the same workload on different architectures: the pair the
	// perf diff should tell apart by protocol-phase composition.
	cfgA := pimdsm.ConfigSpec{Arch: "agg", App: "fft", Scale: 0.02, Threads: 4, Pressure: 0.75, DRatio: 1}
	cfgB := pimdsm.ConfigSpec{Arch: "numa", App: "fft", Scale: 0.02, Threads: 4, Pressure: 0.75}
	submitOne := func(name string, cfg pimdsm.ConfigSpec) pimdsm.JobStatus {
		st, err := c.Submit(pimdsm.JobSpec{Name: name, Configs: []pimdsm.ConfigSpec{cfg}})
		if err != nil {
			t.Fatal(err)
		}
		fin := wait(t, c, st.ID)
		if fin.State != pimdsm.JobDone || !fin.Telemetry {
			t.Fatalf("%s: %+v, want done with head-sampled telemetry", name, fin)
		}
		return fin
	}
	a := submitOne("flight-a", cfgA)
	b := submitOne("flight-b", cfgB)

	// Record-only, end to end: the daemon's served bytes with the recorder on
	// are identical to a direct in-process run without any observers.
	direct, err := pimdsm.Sweep{Workers: 1}.RunMany([]pimdsm.Config{cfgA.Config()})
	if err != nil {
		t.Fatal(err)
	}
	wantRaw, err := json.Marshal(direct[0])
	if err != nil {
		t.Fatal(err)
	}
	_, rawA, err := c.Result(a.ID)
	if err != nil || len(rawA) != 1 {
		t.Fatalf("result: %d raws, %v", len(rawA), err)
	}
	if !bytes.Equal(rawA[0], wantRaw) {
		t.Fatalf("flight recorder changed the result bytes:\n%s\nvs direct\n%s", rawA[0], wantRaw)
	}

	// All three artifacts serve, and the diff names a dominant phase.
	fetchDump := func(st pimdsm.JobStatus) pimdsm.RunDump {
		dump := pimdsm.RunDump{Label: st.ID}
		pb, err := c.Profile(st.ID)
		if err != nil {
			t.Fatalf("%s profile: %v", st.ID, err)
		}
		dump.Profile = &pimdsm.ProfileSnapshot{}
		if err := json.Unmarshal(pb, dump.Profile); err != nil {
			t.Fatalf("%s profile artifact: %v", st.ID, err)
		}
		if dump.Profile.ExecCycles == 0 {
			t.Fatalf("%s profile attributed no cycles", st.ID)
		}
		if fb, err := c.Folded(st.ID); err != nil || len(fb) == 0 {
			t.Fatalf("%s folded: %d bytes, %v", st.ID, len(fb), err)
		}
		db, err := c.Decompose(st.ID)
		if err != nil {
			t.Fatalf("%s decompose: %v", st.ID, err)
		}
		dump.Spans = &pimdsm.SpanBreakdown{}
		if err := json.Unmarshal(db, dump.Spans); err != nil {
			t.Fatalf("%s decompose artifact: %v", st.ID, err)
		}
		if dump.Spans.Retired == 0 {
			t.Fatalf("%s decompose retired no transactions", st.ID)
		}
		return dump
	}
	rep := pimdsm.CompareRuns(fetchDump(a), fetchDump(b), pimdsm.CompareOptions{})
	if rep.DominantPhase == "" || !strings.Contains(rep.Verdict, "dominant") {
		t.Fatalf("diff of agg vs numa named no dominant phase: %+v", rep)
	}

	// Restart with the same stores: the resubmission is a pure cache hit —
	// which records nothing — yet the restored artifact store still serves
	// the original flight record, byte for byte.
	profA, err := c.Profile(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	d.shutdown(t)
	d2 := startDaemon(t, flags...)
	c2 := pimdsm.NewServiceClient(d2.addr)
	st2, err := c2.Submit(pimdsm.JobSpec{Name: "flight-a-again", Configs: []pimdsm.ConfigSpec{cfgA}})
	if err != nil {
		t.Fatal(err)
	}
	if fin := wait(t, c2, st2.ID); fin.CacheHits != 1 || fin.Simulated != 0 || !fin.Telemetry {
		t.Fatalf("post-restart resubmission: %+v, want a pure telemetry cache hit", fin)
	}
	profA2, err := c2.Profile(st2.ID)
	if err != nil {
		t.Fatalf("restarted daemon lost the flight record: %v", err)
	}
	if !bytes.Equal(profA, profA2) {
		t.Fatal("restarted daemon served a different flight record than the original run's")
	}
	stats, err := c2.Stats()
	if err != nil || stats.Artifacts.Count == 0 || stats.Artifacts.Hits == 0 {
		t.Fatalf("artifact store counters after restart: %+v, %v", stats.Artifacts, err)
	}
	d2.shutdown(t)
}
