package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"pimdsm/internal/obs"
)

// TestDashboardThroughAPI serves a dashboard through the API handler, in
// tenant mode: each dashboard path answers as the standalone dashboard does
// without an API key, under its dashboard route label in both the
// aggsimd_http_requests_total counter and the request log; the API's own
// unauthenticated paths still reach the API, tenant routes still demand a
// key, and an unknown path is a 404.
func TestDashboardThroughAPI(t *testing.T) {
	reg, err := NewTenants([]Tenant{{Name: "a", Key: "key-aaaaaaaa"}})
	if err != nil {
		t.Fatal(err)
	}
	var logs bytes.Buffer // requests are served synchronously below
	s, err := New(Options{Slots: 1, Run: (&fakeRunner{}).run, Tenants: reg,
		Log: slog.New(slog.NewJSONHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	d := obs.NewDashboard()
	d.Publish("spans", "span table\n")
	d.Publish("progress", "3/7 runs\n")
	api := NewAPI(s, d).Handler()
	standalone := d.Handler()

	serve := func(h http.Handler, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}
	cases := []struct {
		path, route string
		code        int
		sameBody    bool // false where the body is a live runtime snapshot
	}{
		{"/", "/", 200, true},
		{"/spans", "/spans", 200, true},
		{"/metrics", "/metrics", 200, true},
		{"/profile", "/profile", 200, true},
		{"/no-such-page", "/", 404, true},
		{"/api/v1/no-such-route", "/", 404, true},
		{"/debug/vars", "/debug/vars", 200, false},
		{"/debug/pprof/", "/debug/pprof/", 200, false},
		{"/debug/pprof/cmdline", "/debug/pprof/cmdline", 200, true},
		{"/debug/pprof/heap?debug=1", "/debug/pprof/", 200, false},
		{"/debug/pprof", "/debug/pprof/", 301, true},
	}
	for _, c := range cases {
		got, want := serve(api, c.path), serve(standalone, c.path)
		if got.Code != c.code || want.Code != c.code {
			t.Errorf("%s: API %d, standalone %d, want %d", c.path, got.Code, want.Code, c.code)
		}
		for _, h := range []string{"Content-Type", "Location"} {
			if g, w := got.Header().Get(h), want.Header().Get(h); g != w {
				t.Errorf("%s: %s %q through the API, %q standalone", c.path, h, g, w)
			}
		}
		if c.sameBody && got.Body.String() != want.Body.String() {
			t.Errorf("%s: body through the API differs:\n%s\nstandalone:\n%s", c.path, got.Body, want.Body)
		}
	}
	for path, code := range map[string]int{
		"/metrics.prom": 200, "/healthz": 200, "/readyz": 200, "/api/v1/jobs": 401,
	} {
		if got := serve(api, path); got.Code != code {
			t.Errorf("%s: %d, want %d", path, got.Code, code)
		}
	}

	// The same route labels in the request log...
	logged := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var l struct{ Msg, Path, Route string }
		if err := json.Unmarshal([]byte(line), &l); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if l.Msg == "http_request" {
			logged[l.Path] = l.Route
		}
	}
	for _, c := range cases {
		path, _, _ := strings.Cut(c.path, "?")
		if logged[path] != c.route {
			t.Errorf("%s: logged route %q, want %q", c.path, logged[path], c.route)
		}
	}
	for path, route := range map[string]string{
		"/metrics.prom": "GET /metrics.prom", "/healthz": "GET /healthz",
		"/readyz": "GET /readyz", "/api/v1/jobs": "GET /api/v1/jobs",
	} {
		if logged[path] != route {
			t.Errorf("%s: logged route %q, want %q", path, logged[path], route)
		}
	}
	// ...and in aggsimd_http_requests_total.
	counted := map[string]float64{}
	for _, sm := range scrape(t, s)["aggsimd_http_requests_total"].Samples {
		counted[sm.Labels["route"]+" "+sm.Labels["code"]] += sm.Value
	}
	want := map[string]float64{}
	for _, c := range cases {
		want[c.route+" "+strconv.Itoa(c.code)]++
	}
	for k, n := range want {
		if counted[k] != n {
			t.Errorf("aggsimd_http_requests_total{%s} = %v, want %v", k, counted[k], n)
		}
	}
}
