package main

import (
	"testing"
	"time"

	"pimdsm"
)

// TestSoakSmoke is the `make soak-smoke` body: a concurrent client storm
// through the real daemon, audited end to end by the soak harness — latency
// SLOs from the pow2 histograms, bounded 429 pushback, the exactly-once
// simulation proof from the engine counters, complete ordered lifecycle
// event chains for every job, and a parseable /metrics.prom exposition.
func TestSoakSmoke(t *testing.T) {
	d := startDaemon(t,
		"-addr", "127.0.0.1:0",
		"-queue", "4",
		"-log", "off",
	)
	defer d.shutdown(t)

	// Tiny real simulations with heavy overlap across jobs: the whole
	// Figure 6 fft batch plus singles carved from it.
	batch := pimdsm.Figure6Specs("fft", 4, 0.02)
	specs := []pimdsm.JobSpec{{Configs: batch}}
	for _, cs := range batch {
		specs = append(specs, pimdsm.JobSpec{Configs: []pimdsm.ConfigSpec{cs}})
	}

	// SLO budgets are deliberately generous: this asserts "no pathological
	// stall under -race on a loaded CI box", not production latency.
	rep, err := pimdsm.RunSoak(d.addr, pimdsm.SoakOptions{
		Clients:       3,
		JobsPerClient: 3,
		Specs:         specs,
		SubmitSLO:     5 * time.Second,
		StatusSLO:     5 * time.Second,
		Wait:          90 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + rep.Summary())
	if !rep.OK() {
		t.Fatalf("soak violations:\n%s", rep.Summary())
	}
	if rep.Done != rep.Jobs {
		t.Fatalf("%d/%d jobs done", rep.Done, rep.Jobs)
	}
	if rep.EventChains != rep.Jobs {
		t.Fatalf("validated %d event chains for %d jobs", rep.EventChains, rep.Jobs)
	}
	// The storm has far more submissions than distinct configurations, so
	// the exactly-once bound must actually bite.
	if rep.SimulatedRuns > uint64(rep.DistinctConfigs) {
		t.Fatalf("%d simulated runs for %d distinct configs", rep.SimulatedRuns, rep.DistinctConfigs)
	}
}
