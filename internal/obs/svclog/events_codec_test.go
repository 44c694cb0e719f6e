package svclog

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// FuzzJobEventCodec holds the hand-written JobEvent codec to encoding/json:
// AppendJobEvent writes json.Marshal's bytes (and fails exactly when it
// does), and DecodeJobEvent returns json.Unmarshal's event and error-ness,
// both on that encoding and on arbitrary bytes. zone is the event time's
// UTC offset in seconds. Seeds live in testdata/fuzz/FuzzJobEventCodec.
func FuzzJobEventCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, seq uint64, job, kind, tenant, detail string,
		sec, nsec int64, zone int, since int64, depth, running, config int,
		cycles uint64, data []byte) {
		ev := JobEvent{
			Seq: seq, Job: job, Kind: JobEventKind(kind),
			At:            time.Unix(sec, nsec).In(time.FixedZone("", zone)),
			SinceSubmitUS: since, QueueDepth: depth, Running: running,
			Config: config, Cycles: cycles, Tenant: tenant, Detail: detail,
		}
		prefix := []byte("data: ")
		got, gotErr := AppendJobEvent(prefix, ev)
		want, wantErr := json.Marshal(ev)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("AppendJobEvent error %v, json.Marshal error %v", gotErr, wantErr)
		}
		if wantErr == nil && !bytes.Equal(got, append(prefix, want...)) {
			t.Fatalf("AppendJobEvent wrote\n %s\njson.Marshal\n %s%s", got, prefix, want)
		}
		for _, b := range [][]byte{want, data} {
			if b == nil {
				continue
			}
			got, gotErr := DecodeJobEvent(b)
			var want JobEvent
			wantErr := json.Unmarshal(b, &want)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%q: DecodeJobEvent error %v, json.Unmarshal error %v", b, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%q: DecodeJobEvent\n %+v\njson.Unmarshal\n %+v", b, got, want)
			}
		}
	})
}

// TestAppendJobEventZeroAlloc: an event the fast path encodes costs no
// allocation when the buffer is already large enough, as the SSE handler's
// reused frame buffer is after its first event.
func TestAppendJobEventZeroAlloc(t *testing.T) {
	ev := JobEvent{Seq: 12345, Job: "j-000042", Kind: EvCacheHit,
		At: time.Date(2026, 3, 1, 12, 0, 0, 123456789, time.UTC), SinceSubmitUS: 87,
		QueueDepth: 3, Running: 2, Config: 6, Tenant: "acme", Detail: "cluster:recovered"}
	buf := make([]byte, 0, 512)
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if buf, err = AppendJobEvent(buf[:0], ev); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendJobEvent allocates %.1f times per event", allocs)
	}
	if want, _ := json.Marshal(ev); !bytes.Equal(buf, want) {
		t.Fatalf("AppendJobEvent wrote %s, json.Marshal %s", buf, want)
	}
}
