package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestBackoffWindow(t *testing.T) {
	cases := []struct {
		hint time.Duration
		n    int
		cap  time.Duration
		want time.Duration
	}{
		{time.Second, 0, 30 * time.Second, time.Second},
		{time.Second, 1, 30 * time.Second, 2 * time.Second},
		{time.Second, 3, 30 * time.Second, 8 * time.Second},
		{time.Second, 5, 30 * time.Second, 30 * time.Second}, // 32s capped
		{2 * time.Second, 2, 30 * time.Second, 8 * time.Second},
		{0, 0, 30 * time.Second, time.Second},                   // hint floor
		{5 * time.Second, 0, 2 * time.Second, 2 * time.Second},  // hint above cap
		{time.Second, 1000, 30 * time.Second, 30 * time.Second}, // shift saturates
	}
	for _, tc := range cases {
		if got := backoffWindow(tc.hint, tc.n, tc.cap); got != tc.want {
			t.Errorf("backoffWindow(%v, %d, %v) = %v, want %v", tc.hint, tc.n, tc.cap, got, tc.want)
		}
	}
}

// busyServer always answers 429 with a 1s retry-after hint and counts the
// attempts.
func busyServer(t *testing.T) (*httptest.Server, *int) {
	t.Helper()
	hits := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"busy","retry_after_sec":1}`))
	}))
	t.Cleanup(srv.Close)
	return srv, &hits
}

// TestSubmitRetryBackoffCapAndDoubling pins the sleep sequence with the jitter
// draw forced to its upper bound: each retry sleeps the full window, so the
// recorded sleeps are exactly the doubling-then-capped schedule.
func TestSubmitRetryBackoffCapAndDoubling(t *testing.T) {
	srv, hits := busyServer(t)
	var slept []time.Duration
	c := NewClient(srv.URL)
	c.sleep = func(d time.Duration) { slept = append(slept, d) }
	c.rnd = func() float64 { return 1.0 }

	_, retries, err := c.SubmitRetry(context.Background(),
		JobSpec{Configs: []ConfigSpec{{Arch: "numa", App: "fft", Threads: 1}}},
		5, 4*time.Second)
	var be *BusyError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want BusyError after retries exhausted", err)
	}
	if retries != 5 || *hits != 6 {
		t.Fatalf("retries = %d, hits = %d, want 5 and 6", retries, *hits)
	}
	want := []time.Duration{
		1 * time.Second, // 1s hint, retry 0
		2 * time.Second,
		4 * time.Second, // cap reached
		4 * time.Second,
		4 * time.Second,
	}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("sleep %d = %v, want %v (full schedule %v)", i, slept[i], want[i], slept)
		}
	}
}

// TestSubmitRetryBackoffJitterBounds checks the full-jitter draw scales the
// window: every sleep is rnd()·window, strictly inside [0, window].
func TestSubmitRetryBackoffJitterBounds(t *testing.T) {
	srv, _ := busyServer(t)
	var slept []time.Duration
	c := NewClient(srv.URL)
	c.sleep = func(d time.Duration) { slept = append(slept, d) }
	c.rnd = func() float64 { return 0.5 }

	_, retries, _ := c.SubmitRetry(context.Background(),
		JobSpec{Configs: []ConfigSpec{{Arch: "numa", App: "fft", Threads: 1}}},
		3, 30*time.Second)
	if retries != 3 {
		t.Fatalf("retries = %d, want 3", retries)
	}
	want := []time.Duration{500 * time.Millisecond, time.Second, 2 * time.Second}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("sleep %d = %v, want half the window %v", i, slept[i], want[i])
		}
	}
	// And with a real [0,1) draw the sleep never exceeds the window.
	slept = nil
	c.rnd = nil
	c.SubmitRetry(context.Background(),
		JobSpec{Configs: []ConfigSpec{{Arch: "numa", App: "fft", Threads: 1}}},
		4, 8*time.Second)
	windows := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second}
	if len(slept) != len(windows) {
		t.Fatalf("%d sleeps recorded, want %d", len(slept), len(windows))
	}
	for i, d := range slept {
		if d < 0 || d >= windows[i] {
			t.Fatalf("sleep %d = %v outside jitter window [0, %v)", i, d, windows[i])
		}
	}
}

// TestSubmitRetryBackoffContextCancel: cancellation during the sleep stops
// the retry loop with the context's error.
func TestSubmitRetryBackoffContextCancel(t *testing.T) {
	srv, hits := busyServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	c := NewClient(srv.URL)
	c.sleep = func(time.Duration) { cancel() }
	c.rnd = func() float64 { return 1.0 }

	_, retries, err := c.SubmitRetry(ctx,
		JobSpec{Configs: []ConfigSpec{{Arch: "numa", App: "fft", Threads: 1}}},
		10, time.Second)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if retries != 1 || *hits != 1 {
		t.Fatalf("retries = %d, hits = %d, want 1 and 1", retries, *hits)
	}
}
