package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"pimdsm/internal/cluster"
	"pimdsm/internal/machine"
	"pimdsm/internal/obs/svclog"
	"pimdsm/internal/sim"
	"pimdsm/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata golden files")

// goldenRunner is a deterministic runner for the exposition goldens: every
// config yields a fixed result, the app "fail" fails, and while gate is
// non-nil every run blocks on it.
type goldenRunner struct {
	mu   sync.Mutex
	gate chan struct{}
}

func (g *goldenRunner) hold() {
	g.mu.Lock()
	g.gate = make(chan struct{})
	g.mu.Unlock()
}

func (g *goldenRunner) release() {
	g.mu.Lock()
	close(g.gate)
	g.gate = nil
	g.mu.Unlock()
}

func (g *goldenRunner) run(cfg machine.Config) (*machine.Result, error) {
	g.mu.Lock()
	gate := g.gate
	g.mu.Unlock()
	if gate != nil {
		<-gate
	}
	if cfg.App.Name == "fail" {
		return nil, errors.New("golden: injected failure")
	}
	res := &machine.Result{Arch: cfg.Arch, App: cfg.App.Name, Threads: cfg.Threads}
	res.Breakdown.Exec = sim.Time(1000 * cfg.Threads)
	return res, nil
}

// goldenScript drives one daemon through a fixed request sequence and returns
// the final /api/v1/stats and /metrics.prom bodies. Every request is part of
// the script (jobs are awaited in-process, never by polling over HTTP), so
// the per-route request counts are as deterministic as the job counters.
type goldenScript struct {
	t      *testing.T
	srv    *Server
	base   string
	keys   map[string]string // who -> API key ("" in anonymous mode)
	tenant bool
}

func (g *goldenScript) do(method, path, who string, body any, hdr map[string]string) (int, []byte) {
	g.t.Helper()
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case string:
		rd = strings.NewReader(b)
	default:
		data, err := json.Marshal(b)
		if err != nil {
			g.t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, g.base+path, rd)
	if err != nil {
		g.t.Fatal(err)
	}
	if k := g.keys[who]; k != "" {
		req.Header.Set("X-API-Key", k)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		g.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		g.t.Fatal(err)
	}
	return resp.StatusCode, data
}

func (g *goldenScript) submit(who string, spec JobSpec, want int) string {
	g.t.Helper()
	code, body := g.do("POST", "/api/v1/jobs", who, spec, nil)
	if code != want {
		g.t.Fatalf("submit %s by %s: HTTP %d, want %d: %s", spec.Name, who, code, want, body)
	}
	var st JobStatus
	json.Unmarshal(body, &st)
	return st.ID
}

func (g *goldenScript) wait(id string) {
	g.t.Helper()
	waitJob(g.t, g.srv, id)
}

// until polls the server in-process (no HTTP, so no request counts move).
func (g *goldenScript) until(what string, cond func(ServerStats) bool) {
	g.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond(g.srv.Stats()) {
		if time.Now().After(deadline) {
			g.t.Fatalf("timed out waiting for %s: %+v", what, g.srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func goldenSpec(name string, apps ...string) JobSpec {
	spec := JobSpec{Name: name}
	for i, app := range apps {
		spec.Configs = append(spec.Configs, ConfigSpec{Arch: "agg", App: app, Threads: 4 + 4*i, Pressure: 0.75, DRatio: 1})
	}
	return spec
}

func (g *goldenScript) run(gr *goldenRunner, clustered bool) {
	t := g.t
	// Misses and simulations, then the same batch as cache hits.
	id := g.submit("a", goldenSpec("first", "fft", "lu"), http.StatusAccepted)
	g.wait(id)
	id = g.submit("b", goldenSpec("again", "fft", "lu"), http.StatusAccepted)
	g.wait(id)
	g.do("GET", "/api/v1/jobs/"+id, "b", nil, nil)
	g.do("GET", "/api/v1/jobs/"+id+"/result", "b", nil, nil)
	g.do("GET", "/api/v1/jobs", "a", nil, nil)
	g.do("GET", "/api/v1/jobs/j-999999", "a", nil, nil)
	g.do("POST", "/api/v1/jobs", "a", "{", nil)

	// A failing run, and its result fetch (409).
	id = g.submit("a", goldenSpec("broken", "fail"), http.StatusAccepted)
	g.wait(id)
	g.do("GET", "/api/v1/jobs/"+id+"/result", "a", nil, nil)

	if g.tenant {
		g.do("GET", "/api/v1/jobs", "nobody", nil, map[string]string{"X-API-Key": "not-a-key-at-all"})
		over := goldenSpec("over-ceiling", "ocean")
		over.Priority = 5
		g.submit("a", over, http.StatusForbidden)
		g.do("GET", "/api/v1/tenants", "a", nil, nil)
		g.do("GET", "/api/v1/tenants/b/usage", "b", nil, nil)
	}

	if clustered {
		peer := map[string]string{clusterHeader: "golden"}
		fft := goldenSpec("", "fft").Configs[0]
		g.do("GET", fmt.Sprintf("/api/v1/cluster/lookup?key=%016x", fft.Key(0)), "", nil, peer)
		g.do("GET", "/api/v1/cluster/lookup?key=0000000000000001", "", nil, peer)
		g.do("POST", "/api/v1/cluster/compute", "",
			clusterComputeRequest{Spec: fft, Key: fmt.Sprintf("%016x", fft.Key(0))}, peer)
		radix := goldenSpec("", "radix").Configs[0]
		g.do("POST", "/api/v1/cluster/compute", "",
			clusterComputeRequest{Spec: radix, Key: fmt.Sprintf("%016x", radix.Key(0))}, peer)
		water := goldenSpec("", "water").Configs[0]
		res, _ := gr.run(water.canonical().Config())
		res.PerThread = make([]stats.Thread, res.Threads)
		js, _ := canonicalResultJSON(res)
		g.do("POST", "/api/v1/cluster/replicate", "", indexEntry{
			Key: fmt.Sprintf("%016x", water.Key(0)), Spec: water, Result: js,
		}, peer)
		g.do("GET", "/api/v1/cluster/lookup?key=1", "", nil, nil)
	}

	// A singleflight join: b's job waits on the flight a's job owns.
	gr.hold()
	ja := g.submit("a", goldenSpec("owner", "barnes"), http.StatusAccepted)
	g.until("owner running", func(st ServerStats) bool { return st.Running == 1 })
	jb := g.submit("b", goldenSpec("joiner", "barnes"), http.StatusAccepted)
	g.until("join", func(st ServerStats) bool { return st.Cache.Joins == 1 })
	gr.release()
	g.wait(ja)
	g.wait(jb)

	// Saturate both slots and the one-job window, collect rejections,
	// then drain: the queued job aborts, late submissions bounce.
	gr.hold()
	g.submit("a", goldenSpec("busy-a", "mp3d"), http.StatusAccepted)
	g.until("busy-a running", func(st ServerStats) bool { return st.Running == 1 })
	g.submit("b", goldenSpec("busy-b", "cholesky"), http.StatusAccepted)
	g.until("both running", func(st ServerStats) bool { return st.Running == 2 })
	g.until("both simulating", func(st ServerStats) bool { return st.SimSlotsInUse == 2 })
	g.submit("a", goldenSpec("queued", "volrend"), http.StatusAccepted)
	if g.tenant {
		g.submit("b", goldenSpec("rate", "dbase"), http.StatusTooManyRequests)
	} else {
		g.submit("b", goldenSpec("window-b", "dbase"), http.StatusTooManyRequests)
	}
	g.submit("a", goldenSpec("window-a", "dbase"), http.StatusTooManyRequests)
	g.do("GET", "/readyz", "", nil, nil)

	done := make(chan error, 1)
	go func() { done <- g.srv.Shutdown(context.Background()) }()
	g.until("drain", func(st ServerStats) bool { return st.Draining && st.JobsAborted == 1 })
	g.submit("a", goldenSpec("late", "dbase"), http.StatusServiceUnavailable)
	gr.release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	g.do("GET", "/healthz", "", nil, nil)
}

var promDurationMask = regexp.MustCompile(`(?m)^(aggsimd_http_request_duration_us_(?:bucket|sum)\{[^\n]*\}) \S+$`)

// TestExpositionGolden pins /metrics.prom and /api/v1/stats byte for byte in
// three modes — anonymous, two tenants, and a tenant-mode cluster node
// serving peer traffic — after a fixed request script. Only the wall-clock
// request-duration buckets and sums are masked. Regenerate deliberately with
// `go test ./internal/serve -run TestExpositionGolden -update`.
func TestExpositionGolden(t *testing.T) {
	for _, mode := range []string{"anonymous", "tenants", "cluster"} {
		t.Run(mode, func(t *testing.T) {
			gr := &goldenRunner{}
			opt := Options{Slots: 2, QueueLimit: 1, Run: gr.run, Events: svclog.NewEventLog(0)}
			keys := map[string]string{}
			if mode != "anonymous" {
				reg, err := NewTenants([]Tenant{
					{Name: "a", Key: "key-aaaaaaaa"},
					{Name: "b", Key: "key-bbbbbbbb", RatePerSec: 0.001, Burst: 3},
				})
				if err != nil {
					t.Fatal(err)
				}
				opt.Tenants = reg
				keys = map[string]string{"a": "key-aaaaaaaa", "b": "key-bbbbbbbb"}
			}
			s, err := New(opt)
			if err != nil {
				t.Fatal(err)
			}
			if mode == "cluster" {
				node, err := cluster.New(cluster.Config{Name: "golden", Self: "golden-node:1", HeartbeatEvery: time.Hour})
				if err != nil {
					t.Fatal(err)
				}
				s.AttachCluster(node)
			}
			hs := httptest.NewServer(NewAPI(s, nil).Handler())
			defer hs.Close()
			g := &goldenScript{t: t, srv: s, base: hs.URL, keys: keys, tenant: opt.Tenants != nil}
			g.run(gr, mode == "cluster")

			_, stats := g.do("GET", "/api/v1/stats", "a", nil, nil)
			_, prom := g.do("GET", "/metrics.prom", "", nil, nil)
			prom = promDurationMask.ReplaceAll(prom, []byte("$1 X"))
			for name, got := range map[string][]byte{
				"exposition_" + mode + ".prom":       prom,
				"exposition_" + mode + "_stats.json": stats,
			} {
				path := filepath.Join("testdata", name)
				if *updateGolden {
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s drifted from the golden (rerun with -update only for a deliberate change):\n%s",
						name, lineDiff(string(want), string(got)))
				}
			}
		})
	}
}

// lineDiff lists the lines that differ between two renderings.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  want %q\n  got  %q\n", i+1, wl, gl)
		}
	}
	return b.String()
}
