package svclog

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/chrome_lifecycle.golden")

// lifecycleEvents covers every member the lifecycle export can write: a
// config index, simulated cycles, a tenant, a detail that needs JSON
// escaping, two jobs on their own tracks, and each terminal kind with its
// job-life span.
func lifecycleEvents() []JobEvent {
	base := time.Unix(1000, 0)
	at := func(us int) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }
	return []JobEvent{
		{Seq: 1, Job: "j-000001", Kind: EvSubmitted, At: at(0), Config: -1, Tenant: "acme", Detail: "2 configs"},
		{Seq: 2, Job: "j-000002", Kind: EvSubmitted, At: at(40), Config: -1, QueueDepth: 1},
		{Seq: 3, Job: "j-000001", Kind: EvStarted, At: at(125), Config: -1, Tenant: "acme", QueueDepth: 2, Running: 1, SinceSubmitUS: 125},
		{Seq: 4, Job: "j-000001", Kind: EvCacheHit, At: at(130), Config: 0, Tenant: "acme", Running: 1, SinceSubmitUS: 130},
		{Seq: 5, Job: "j-000001", Kind: EvSimulated, At: at(2500), Config: 1, Cycles: 143888, Tenant: "acme", Running: 1, SinceSubmitUS: 2500},
		{Seq: 6, Job: "j-000001", Kind: EvDone, At: at(2600), Config: -1, Tenant: "acme", SinceSubmitUS: 2600},
		{Seq: 7, Job: "j-000002", Kind: EvFailed, At: at(3000), Config: 0, Detail: `run "radix": <bad> & broken ☂` + "\n", SinceSubmitUS: 2960},
	}
}

// TestChromeLifecycleGolden pins the lifecycle export against
// testdata/chrome_lifecycle.golden as decoded JSON: every name, value and
// timestamp must stay the same number; only the order of members within
// an object may change.
func TestChromeLifecycleGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeJSON(&buf, lifecycleEvents()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_lifecycle.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	type doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	var got, exp doc
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("export is not JSON: %v\n%s", err, buf.Bytes())
	}
	if err := json.Unmarshal(want, &exp); err != nil {
		t.Fatal(err)
	}
	if len(exp.TraceEvents) != 9 {
		t.Fatalf("golden holds %d events, want 7 instants and 2 job spans", len(exp.TraceEvents))
	}
	if !reflect.DeepEqual(got, exp) {
		t.Fatalf("lifecycle export changed:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}
