package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestJSONString: the Chrome writer quotes names, categories and string
// args as json.Marshal does, so one carrying quotes, backslashes, control
// characters or invalid UTF-8 still leaves valid JSON that reads back.
func TestJSONString(t *testing.T) {
	for _, in := range []string{"read", `a"b`, `a\b`, "a\nb\x01", "", "<&>", "\xff\u2028"} {
		var buf bytes.Buffer
		c := NewChromeWriter(&buf, in, 3)
		c.Event('i', in, in, 0, 0, 0)
		c.String(in, in)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		q, _ := json.Marshal(in)
		want := fmt.Sprintf(`{"displayTimeUnit":%[1]s,"traceEvents":[{"name":%[1]s,"cat":%[1]s,"ph":"i","s":"t","ts":0.000,"pid":0,"tid":0,"args":{%[1]s:%[1]s}}]}`+"\n", q)
		if buf.String() != want {
			t.Errorf("%q: wrote\n%s\nwant\n%s", in, buf.String(), want)
		}
		if !json.Valid(buf.Bytes()) {
			t.Errorf("%q: invalid JSON %s", in, buf.String())
		}
	}
}

// goldenEvents exercises every rendering shape: span ("X"), counter ("C"),
// and instant ("i") events, with each args variant.
func goldenEvents() []Event {
	return []Event{
		{Kind: EvRunStart, At: 0, Node: -1, Addr: 32, Arg: 8},
		{Kind: EvRead, At: 1000, Dur: 298, Node: 3, Addr: 0x1000, Arg: 3},
		{Kind: EvWrite, At: 2500, Dur: 383, Node: 5, Addr: 0x2080, Arg: 4},
		{Kind: EvMsg, At: 2600, Dur: 74, Node: 5, Addr: 9, Arg: 2<<32 | 144},
		{Kind: EvInval, At: 2700, Node: 7, Addr: 0x2080},
		{Kind: EvPageout, At: 3000, Node: 33, Addr: 0x4000, Arg: 12},
		{Kind: EvOcc, At: 3500, Node: 33, Arg: 512},
		{Kind: EvPhase, At: 4000, Node: -1, Arg: 2},
		{Kind: EvInject, At: 4200, Node: 2, Addr: 0x5000, Arg: 3},
		{Kind: EvScan, At: 4400, Dur: 96, Node: 1, Addr: 0x6000, Arg: 16},
	}
}

// TestChromeJSONGolden pins the exporter's JSON envelope byte-for-byte: the
// displayTimeUnit header, the per-shape event rendering, and the args
// payloads. Regenerate with `go test ./internal/obs -run ChromeJSONGolden
// -update` after an intentional format change.
func TestChromeJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeJSONEvents(&buf, goldenEvents()); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("exporter produced invalid JSON:\n%s", buf.String())
	}
	var env struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		TraceEvents     []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q, want ns", env.DisplayTimeUnit)
	}
	if len(env.TraceEvents) != len(goldenEvents()) {
		t.Fatalf("%d trace events, want %d", len(env.TraceEvents), len(goldenEvents()))
	}

	golden := filepath.Join("testdata", "chrome_trace.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome JSON changed; run with -update if intentional.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}
