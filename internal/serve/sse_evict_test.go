package serve

import (
	"context"
	"testing"
	"time"

	"pimdsm/internal/obs/svclog"
)

// TestHTTPSSEResumeAfterRingEviction: a consumer reconnecting with a
// Last-Event-ID that the bounded replay ring has already rotated past gets a
// clean restart from the oldest event still held — the stream neither hangs
// nor errors, and the consumer can detect the gap from the first replayed
// sequence number (exactly the cache-restart behavior `pimdsm watch` relies
// on after a long disconnect).
func TestHTTPSSEResumeAfterRingEviction(t *testing.T) {
	fr := &fakeRunner{}
	// A 4-event ring: any one job's lifecycle already overflows it.
	_, c := startAPI(t, Options{
		Slots: 1, Run: fr.run,
		Events: svclog.NewEventLog(4),
	})

	var lastJob string
	for _, app := range []string{"a", "b", "c", "d"} {
		st, err := c.Submit(spec1(app))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if _, err := c.Wait(ctx, st.ID, 5*time.Millisecond); err != nil {
			cancel()
			t.Fatal(err)
		}
		cancel()
		lastJob = st.ID
	}

	// Resume from a cursor long evicted from the ring.
	const staleCursor = 1
	var got []svclog.JobEvent
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := c.StreamEvents(ctx, staleCursor, "", "", func(ev svclog.JobEvent) {
		got = append(got, ev)
		if ev.Job == lastJob && ev.Kind == svclog.EvDone {
			cancel()
		}
	})
	if err != nil && err != context.Canceled {
		t.Fatalf("stream after ring eviction: %v, want a clean restart", err)
	}
	if len(got) == 0 {
		t.Fatal("evicted-cursor resume replayed nothing")
	}
	// The ring rotated: the restart begins past the gap, not at cursor+1.
	if got[0].Seq <= staleCursor+1 {
		t.Fatalf("replay starts at seq %d — the ring should have rotated past %d", got[0].Seq, staleCursor+1)
	}
	// What is replayed is dense: the gap is only at the front, never inside.
	for i := 1; i < len(got); i++ {
		if got[i].Seq != got[i-1].Seq+1 {
			t.Fatalf("sequence gap inside the restart: %d -> %d", got[i-1].Seq, got[i].Seq)
		}
	}
	if got[len(got)-1].Kind != svclog.EvDone || got[len(got)-1].Job != lastJob {
		t.Fatalf("restart never reached the newest event: last got %+v", got[len(got)-1])
	}
}
