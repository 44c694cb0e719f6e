package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pimdsm/internal/sim"
)

func TestNopTraceDisabled(t *testing.T) {
	n := Nop()
	if n.On() {
		t.Fatal("Nop trace reports On")
	}
	n.Emit(EvRead, 10, 5, 0, 0x80, 0) // must be a no-op, not a panic
	if n.Total() != 0 || n.Len() != 0 || n.Cap() != 0 {
		t.Fatalf("Nop trace recorded something: total=%d len=%d cap=%d", n.Total(), n.Len(), n.Cap())
	}
	if Nop() != n {
		t.Fatal("Nop is not a shared singleton")
	}
}

func TestTraceCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 1 << 16}, {-5, 1 << 16}, {1, 1}, {2, 2}, {3, 4}, {1000, 1024}, {1024, 1024},
	} {
		if got := NewTrace(tc.in).Cap(); got != tc.want {
			t.Errorf("NewTrace(%d).Cap() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestTraceRingOverwrite(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 10; i++ {
		tr.Emit(EvInval, sim.Time(i), 0, int32(i), uint64(i)*128, 0)
	}
	if tr.Total() != 10 || tr.Len() != 4 || tr.Dropped() != 6 {
		t.Fatalf("total=%d len=%d dropped=%d, want 10/4/6", tr.Total(), tr.Len(), tr.Dropped())
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("Events len = %d, want 4", len(ev))
	}
	// The four newest survive, in time order.
	for i, e := range ev {
		if want := sim.Time(6 + i); e.At != want {
			t.Errorf("event %d at %d, want %d", i, e.At, want)
		}
	}
}

func TestTraceEventsSortedByTime(t *testing.T) {
	tr := NewTrace(8)
	// Threads run ahead of each other, so emission order is not time order.
	tr.Emit(EvRead, 50, 10, 0, 0x100, 0)
	tr.Emit(EvRead, 20, 10, 1, 0x200, 0)
	tr.Emit(EvWrite, 35, 5, 2, 0x300, 0)
	ev := tr.Events()
	for i := 1; i < len(ev); i++ {
		if ev[i].At < ev[i-1].At {
			t.Fatalf("events out of order: %v", ev)
		}
	}
	if ev[0].Node != 1 || ev[1].Node != 2 || ev[2].Node != 0 {
		t.Fatalf("unexpected order: %v", ev)
	}
}

func TestTraceCountKindAndReset(t *testing.T) {
	tr := NewTrace(16)
	tr.Emit(EvRead, 1, 1, 0, 0, 0)
	tr.Emit(EvRead, 2, 1, 0, 0, 0)
	tr.Emit(EvWriteBack, 3, 0, 0, 0, 0)
	if tr.CountKind(EvRead) != 2 || tr.CountKind(EvWriteBack) != 1 || tr.CountKind(EvPageout) != 0 {
		t.Fatal("CountKind wrong")
	}
	tr.Reset()
	if tr.Len() != 0 || tr.CountKind(EvRead) != 0 {
		t.Fatal("Reset did not clear")
	}
	if !tr.On() {
		t.Fatal("Reset disabled the trace")
	}
}

func TestChromeJSONWellFormed(t *testing.T) {
	tr := NewTrace(16)
	tr.Emit(EvRunStart, 0, 0, -1, 32, 8)
	tr.Emit(EvRead, 100, 37, 3, 0x1000, 2)
	tr.Emit(EvWrite, 150, 298, 4, 0x2000, 3)
	tr.Emit(EvInval, 200, 0, 5, 0x1000, 0)
	tr.Emit(EvMsg, 210, 40, 1, 6, uint64(3)<<32|144)
	tr.Emit(EvOcc, 300, 0, 33, 0, 512)
	tr.Emit(EvPageout, 400, 0, 33, 0x4000, 511)

	var buf bytes.Buffer
	if err := WriteChromeJSONEvents(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string                   `json:"displayTimeUnit"`
		TraceEvents     []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != 7 {
		t.Fatalf("traceEvents len = %d, want 7", len(doc.TraceEvents))
	}
	phases := map[string]string{"read": "X", "write": "X", "msg": "X", "inval": "i", "pageout": "i"}
	for _, e := range doc.TraceEvents {
		name := e["name"].(string)
		if strings.HasPrefix(name, "free-slots") {
			if e["ph"] != "C" {
				t.Errorf("occ event ph = %v, want C", e["ph"])
			}
			continue
		}
		if want, ok := phases[name]; ok && e["ph"] != want {
			t.Errorf("%s event ph = %v, want %s", name, e["ph"], want)
		}
	}
	// Timestamps must come out in non-decreasing sim-time order.
	last := -1.0
	for _, e := range doc.TraceEvents {
		ts := e["ts"].(float64)
		if ts < last {
			t.Fatalf("timestamps out of order: %v after %v", ts, last)
		}
		last = ts
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := NewTrace(8)
	tr.Emit(EvRead, 100, 37, 3, 0x1000, 2)
	tr.Emit(EvInval, 200, 0, -1, 0x1000, 0) // negative node survives
	tr.Emit(EvScan, 300, 4096, 35, 0x8000, 32)

	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if want := 24 + 3*recordSize; buf.Len() != want {
		t.Fatalf("binary size = %d, want %d", buf.Len(), want)
	}
	events, total, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if total != 3 || len(events) != 3 {
		t.Fatalf("total=%d len=%d, want 3/3", total, len(events))
	}
	want := tr.Events()
	for i := range events {
		if events[i] != want[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, events[i], want[i])
		}
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, _, err := ReadBinary(bytes.NewReader([]byte("not a trace file at all....."))); err == nil {
		t.Fatal("bad magic accepted")
	}
	var buf bytes.Buffer
	if err := NewTrace(4).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 99 // corrupt the version
	if _, _, err := ReadBinary(bytes.NewReader(b)); err == nil {
		t.Fatal("bad version accepted")
	}
	b[4] = binVersion
	b[8] = 1 // one event held of none emitted
	if _, _, err := ReadBinary(bytes.NewReader(append(b, make([]byte, recordSize)...))); err == nil {
		t.Fatal("more events held than emitted accepted")
	}
}

func TestKindStrings(t *testing.T) {
	for k := EventKind(0); k < NumEventKinds; k++ {
		if k.String() == "" || k.String() == "invalid" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if EventKind(200).String() != "invalid" {
		t.Fatal("out-of-range kind not flagged")
	}
	if !EvRead.Span() || !EvMsg.Span() || EvInval.Span() {
		t.Fatal("span classification wrong")
	}
}
