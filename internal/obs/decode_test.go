package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"runtime"
	"slices"
	"testing"
)

// oversizedTrace is a PDT1 header claiming 1<<20 events with none after it.
func oversizedTrace() []byte {
	b := make([]byte, 24)
	copy(b, binMagic)
	binary.LittleEndian.PutUint16(b[4:6], binVersion)
	binary.LittleEndian.PutUint64(b[8:16], 1<<20)
	binary.LittleEndian.PutUint64(b[16:24], 1<<20)
	return b
}

// oversizedSpans is a PDS1 header and aggregate table claiming 1<<16 kept
// spans with none after them.
func oversizedSpans() []byte {
	var buf bytes.Buffer
	NewSpans(1).WriteBinary(&buf)
	b := buf.Bytes()
	binary.LittleEndian.PutUint64(b[24:32], 1<<16)
	return b
}

// TestDecodersBoundPresize: a header's record count is untrusted, so a file
// that claims many records and holds none fails without allocating for them.
func TestDecodersBoundPresize(t *testing.T) {
	for _, c := range []struct {
		name string
		read func() error
	}{
		{"PDT1", func() error { _, _, err := ReadBinary(bytes.NewReader(oversizedTrace())); return err }},
		{"PDS1", func() error { _, err := ReadSpansBinary(bytes.NewReader(oversizedSpans())); return err }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.read()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a header with no records after it decoded", c.name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%s: decoding an empty file allocated %d bytes", c.name, n)
		}
	}
}

// FuzzReadTrace: a PDT1 file either fails to decode, or re-encodes (through
// writeBinary, WriteBinary's encoder) to one that decodes to the same events
// and total, and its events export as valid Chrome JSON.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		events, total, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var bin bytes.Buffer
		if err := writeBinary(&bin, events, total); err != nil {
			t.Fatal(err)
		}
		again, total2, err := ReadBinary(&bin)
		if err != nil || total2 != total || !slices.Equal(again, events) {
			t.Fatalf("re-encoded trace reads back %d events, total %d (%v); want %d, %d",
				len(again), total2, err, len(events), total)
		}
		var js bytes.Buffer
		if err := WriteChromeJSONEvents(&js, events); err != nil || !json.Valid(js.Bytes()) {
			t.Fatalf("Chrome export is not JSON (%v):\n%s", err, js.Bytes())
		}
	})
}

// FuzzReadSpans: a PDS1 file either fails to decode, or re-encodes with
// WriteBinary to one that decodes to the same counters, aggregate tables
// and kept spans.
func FuzzReadSpans(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSpansBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var bin bytes.Buffer
		if err := s.WriteBinary(&bin); err != nil {
			t.Fatal(err)
		}
		r, err := ReadSpansBinary(&bin)
		if err != nil {
			t.Fatalf("re-encoded spans do not decode: %v", err)
		}
		if r.retired != s.retired || r.bad != s.bad || r.count != s.count ||
			r.queued != s.queued || r.agg != s.agg || !slices.Equal(r.Kept(), s.Kept()) {
			t.Fatalf("re-encoded spans read back differently")
		}
	})
}
