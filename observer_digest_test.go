package pimdsm

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

const observerDigestsPath = "testdata/observer_digests.json"

// TestObserverDigests pins the bytes every observer writes, as
// TestFigure6Digests pins the Result: for a handful of configurations run
// with the trace, the span recorder, the profiler, the metrics registry and
// the auditor all attached, the SHA-256 of the PDT1 binary trace, the PDS1
// span recorder, the folded profile, the metrics JSON and the audit report
// must match testdata/observer_digests.json. The configs cover each machine
// on ocean and radix at 75% pressure (COMA's radix injects) and AGG radix at
// 95% on a quarter of the D-nodes, which pages out. Rewrite the file only
// for a deliberate change to what the observers record:
// `go test . -run TestObserverDigests -update`.
func TestObserverDigests(t *testing.T) {
	if raceEnabled {
		t.Skip("seven observed simulations; the non-race test run covers the digests")
	}
	type run struct {
		arch     Arch
		app      string
		pressure float64
		dratio   int
	}
	runs := []run{
		{AGG, "ocean", 0.75, 1},
		{AGG, "radix", 0.95, 4},
		{NUMA, "ocean", 0.75, 1},
		{NUMA, "radix", 0.75, 1},
		{COMA, "ocean", 0.75, 1},
		{COMA, "radix", 0.75, 1},
	}
	got := map[string]string{}
	for _, r := range runs {
		cfg := Config{
			Arch:     r.arch,
			App:      App(r.app, 0.05),
			Threads:  8,
			Pressure: r.pressure,
			DRatio:   r.dratio,
			Trace:    NewTrace(1 << 20),
			Metrics:  NewMetrics(),
			Spans:    NewSpans(0),
			Profile:  NewProfile(),
			Audit:    true,
		}
		name := fmt.Sprintf("%s/%s/p%.2f/d%d", r.app, r.arch, r.pressure, r.dratio)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.dratio > 1 && res.Machine.Pageouts == 0 {
			t.Fatalf("%s: no pageouts; the config no longer covers paging", name)
		}
		if r.arch == COMA && res.Machine.Injections == 0 {
			t.Fatalf("%s: no injections; the config no longer covers them", name)
		}
		if d := cfg.Trace.Dropped(); d > 0 {
			t.Fatalf("%s: trace ring dropped %d events; raise its capacity", name, d)
		}
		var trace, spans, folded, metrics bytes.Buffer
		for _, w := range []struct {
			what string
			err  error
		}{
			{"trace", WriteBinaryTrace(&trace, cfg.Trace)},
			{"spans", WriteBinarySpans(&spans, cfg.Spans)},
			{"folded", WriteFoldedProfile(&folded, cfg.Profile)},
			{"metrics", cfg.Metrics.WriteJSON(&metrics)},
		} {
			if w.err != nil {
				t.Fatalf("%s: writing %s: %v", name, w.what, w.err)
			}
		}
		audit := fmt.Sprintf("%d\n", res.AuditViolations)
		for _, s := range res.AuditSamples {
			audit += s + "\n"
		}
		for what, b := range map[string][]byte{
			"trace":   trace.Bytes(),
			"spans":   spans.Bytes(),
			"folded":  folded.Bytes(),
			"metrics": metrics.Bytes(),
			"audit":   []byte(audit),
		} {
			sum := sha256.Sum256(b)
			got[name+"/"+what] = hex.EncodeToString(sum[:])
		}
	}
	if *updateDigests {
		js, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(observerDigestsPath, append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(observerDigestsPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d observer outputs hashed, golden has %d", len(got), len(want))
	}
	for name, w := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: in the golden but not produced", name)
		} else if g != w {
			t.Errorf("%s: digest %s, golden %s", name, g, w)
		}
	}
}
