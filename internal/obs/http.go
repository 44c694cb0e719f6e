package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"time"
)

// Dashboard serves live snapshots of a running simulation over HTTP without
// ever letting an HTTP handler touch simulator state: the simulation
// goroutine renders text sections and Publishes them under a key; handlers
// only copy the latest strings out under the mutex. That keeps the
// simulator single-threaded and race-free while a multi-minute sweep is
// watched from a browser.
//
// Routes: "/" (all sections), "/spans", "/metrics" and "/profile" (single
// well-known sections), "/debug/vars" (expvar), "/debug/pprof/*" (profiling).
type Dashboard struct {
	mu    sync.Mutex
	vals  map[string]string
	order []string // keys in first-publish order, for a stable index page
}

// NewDashboard returns an empty dashboard.
func NewDashboard() *Dashboard {
	return &Dashboard{vals: make(map[string]string)}
}

// Publish replaces the section stored under key. Safe to call from the
// simulation goroutine (or a serialized sweep callback) while HTTP readers
// are active.
func (d *Dashboard) Publish(key, text string) {
	d.mu.Lock()
	if _, ok := d.vals[key]; !ok {
		d.order = append(d.order, key)
	}
	d.vals[key] = text
	d.mu.Unlock()
}

// Section returns the current text under key ("" if never published).
func (d *Dashboard) Section(key string) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.vals[key]
}

// Keys returns the published section keys in first-publish order.
func (d *Dashboard) Keys() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.order...)
}

// ProgressFunc returns a Sweep.Progress-shaped callback that publishes a
// one-line completion status under key.
func (d *Dashboard) ProgressFunc(key string) func(done, total, i int) {
	return func(done, total, i int) {
		d.Publish(key, fmt.Sprintf("%d/%d runs complete (last: config %d)\n", done, total, i))
	}
}

func (d *Dashboard) serveSection(key string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s := d.Section(key); s != "" {
			fmt.Fprint(w, s)
			return
		}
		fmt.Fprintf(w, "section %q has not been published yet\n", key)
	}
}

func (d *Dashboard) serveIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	keys := d.Keys()
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	fmt.Fprintf(w, "pimdsm dashboard — sections: %v; also /spans /metrics /profile /debug/vars /debug/pprof/\n\n", sorted)
	for _, k := range keys {
		fmt.Fprintf(w, "== %s ==\n%s\n", k, d.Section(k))
	}
}

// Register adds the dashboard's routes to mux: published sections, expvar
// and pprof. A daemon registers them on its own route table; Handler puts
// them on a private one.
func (d *Dashboard) Register(mux *http.ServeMux) {
	mux.HandleFunc("/", d.serveIndex)
	mux.HandleFunc("/spans", d.serveSection("spans"))
	mux.HandleFunc("/metrics", d.serveSection("metrics"))
	mux.HandleFunc("/profile", d.serveSection("profile"))
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Handler returns the dashboard's routes on a private mux, so importing
// this package never mutates http.DefaultServeMux.
func (d *Dashboard) Handler() http.Handler {
	mux := http.NewServeMux()
	d.Register(mux)
	return mux
}

// NewHTTPServer wraps h in an http.Server hardened against slow or
// malicious clients: a connection that trickles its headers, never finishes
// its body, or never reads its response is torn down instead of pinning a
// goroutine and file descriptor forever. The write timeout is generous
// because legitimate responses stream for a while (a CPU profile runs 30s
// by default; a job progress stream follows a whole batch) — clients of
// longer jobs reconnect and resume polling.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       1 * time.Minute,
		WriteTimeout:      10 * time.Minute,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
}

// Serve serves h on ln from a NewHTTPServer on a background goroutine and
// returns a closer that shuts the listener down.
func Serve(ln net.Listener, h http.Handler) func() {
	hs := NewHTTPServer(h)
	go hs.Serve(ln)
	return func() { hs.Close() }
}

// ListenAndServe binds addr (e.g. "localhost:8080" or ":0" for an ephemeral
// port) and Serves h on it, returning the bound address and the closer.
func ListenAndServe(addr string, h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	return ln.Addr().String(), Serve(ln, h), nil
}

// ListenAndServe serves the dashboard on addr in the background, returning
// the bound address. The listener lives until the process exits: the
// dashboard accompanies a run, it does not outlive one.
func (d *Dashboard) ListenAndServe(addr string) (string, error) {
	bound, _, err := ListenAndServe(addr, d.Handler())
	return bound, err
}
