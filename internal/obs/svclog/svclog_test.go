package svclog

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn, "ERROR": slog.LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("ParseLevel(loud) should fail")
	}
}

func TestDeterministicModeDropsTime(t *testing.T) {
	var buf bytes.Buffer
	log := New(&buf, slog.LevelInfo, true)
	log.Info("hello", "k", 1)
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("log line is not JSON: %v (%q)", err, buf.String())
	}
	if _, has := m["time"]; has {
		t.Fatalf("deterministic line still carries a timestamp: %q", buf.String())
	}
	buf.Reset()
	New(&buf, slog.LevelInfo, false).Info("hello")
	if !strings.Contains(buf.String(), `"time"`) {
		t.Fatalf("non-deterministic line lost its timestamp: %q", buf.String())
	}
}

// TestRequestLogGoldenKeySet is the log-schema drift gate: one request
// logged through the middleware in deterministic mode must parse as JSON
// whose key set is exactly testdata/http_log_keys.golden.
func TestRequestLogGoldenKeySet(t *testing.T) {
	var buf bytes.Buffer
	log := New(&buf, slog.LevelInfo, true)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("x"))
	})
	h := Middleware(log, nil, mux)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/jobs/j-000001", nil))

	line := strings.TrimSpace(buf.String())
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("request log line is not JSON: %v (%q)", err, line)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	got := strings.Join(keys, "\n") + "\n"

	want, err := os.ReadFile("testdata/http_log_keys.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("http_request log schema drifted.\ngot keys:\n%swant keys:\n%s"+
			"(update testdata/http_log_keys.golden only for a deliberate contract change)",
			got, want)
	}
	if m["route"] != "GET /api/v1/jobs/{id}" {
		t.Fatalf("route label = %v, want the mux pattern", m["route"])
	}
}

// TestRequestLogTenantKey: a handler that resolves a tenant (as the API's
// auth wrapper does via SetTenant) gets exactly one extra key — tenant —
// appended to the golden anonymous set; an anonymous request stays on the
// golden set itself (asserted by TestRequestLogGoldenKeySet above).
func TestRequestLogTenantKey(t *testing.T) {
	var buf bytes.Buffer
	log := New(&buf, slog.LevelInfo, true)
	h := Middleware(log, nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		SetTenant(r.Context(), "acme")
		w.WriteHeader(http.StatusOK)
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/jobs", nil))

	var m map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(buf.String())), &m); err != nil {
		t.Fatalf("request log line is not JSON: %v (%q)", err, buf.String())
	}
	if m["tenant"] != "acme" {
		t.Fatalf("tenant key = %v, want acme (%q)", m["tenant"], buf.String())
	}

	keys := make([]string, 0, len(m))
	for k := range m {
		if k != "tenant" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	want, err := os.ReadFile("testdata/http_log_keys.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(keys, "\n") + "\n"; got != string(want) {
		t.Fatalf("tenant line drifted beyond the one extra key.\ngot (minus tenant):\n%swant:\n%s", got, want)
	}
}

// SetTenant outside the middleware must be a harmless no-op, and TenantName
// must come back empty.
func TestSetTenantWithoutMiddleware(t *testing.T) {
	r := httptest.NewRequest("GET", "/x", nil)
	SetTenant(r.Context(), "ghost")
	if got := TenantName(r.Context()); got != "" {
		t.Fatalf("TenantName without middleware = %q, want empty", got)
	}
}

func TestMiddlewareRequestID(t *testing.T) {
	var seen string
	h := Middleware(Nop(), nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestID(r.Context())
	}))

	// Generated when absent, echoed on the response.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if seen == "" || rec.Header().Get(RequestIDHeader) != seen {
		t.Fatalf("generated id %q not echoed (%q)", seen, rec.Header().Get(RequestIDHeader))
	}

	// Propagated when present.
	req := httptest.NewRequest("GET", "/x", nil)
	req.Header.Set(RequestIDHeader, "client-supplied-7")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if seen != "client-supplied-7" || rec.Header().Get(RequestIDHeader) != "client-supplied-7" {
		t.Fatalf("inbound id not propagated: ctx %q, header %q", seen, rec.Header().Get(RequestIDHeader))
	}
}

// TestMiddlewareObserves: every completed request reaches the observe hook
// once, keyed by the mux route pattern (path parameters folded), with the
// status the handler wrote ("unmatched" when no route did) and a duration.
func TestMiddlewareObserves(t *testing.T) {
	type obsd struct {
		route  string
		status int
	}
	var got []obsd
	var durs []time.Duration
	mux := http.NewServeMux()
	mux.HandleFunc("GET /a/{id}", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Millisecond)
		w.Write([]byte("ok"))
	})
	mux.HandleFunc("POST /b", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	})
	h := Middleware(Nop(), func(route string, status int, d time.Duration) {
		got = append(got, obsd{route, status})
		durs = append(durs, d)
	}, mux)
	for _, req := range []*http.Request{
		httptest.NewRequest("GET", "/a/1", nil),
		httptest.NewRequest("GET", "/a/2", nil),
		httptest.NewRequest("POST", "/b", nil),
		httptest.NewRequest("GET", "/nowhere", nil),
	} {
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	want := []obsd{{"GET /a/{id}", 200}, {"GET /a/{id}", 200}, {"POST /b", 500}, {"unmatched", 404}}
	if len(got) != len(want) {
		t.Fatalf("observed %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("observation %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if durs[0] < time.Millisecond {
		t.Fatalf("duration %v shorter than the handler's sleep", durs[0])
	}
}
