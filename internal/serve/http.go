package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"pimdsm/internal/obs"
	"pimdsm/internal/obs/svclog"
)

// API is the service's JSON/HTTP surface over a Server, optionally mounted
// alongside an obs.Dashboard (which keeps its routes: /, /spans, /metrics,
// /profile, /debug/vars, /debug/pprof/). Every route passes through the
// svclog middleware: requests are stamped with X-Request-ID, logged as
// structured JSON, and counted by route and status, with their latency, in
// the server's metrics registry.
//
// Routes:
//
//	POST /api/v1/jobs               submit a JobSpec  (202, or 429 + Retry-After;
//	                                a batch all cached answers 202 already done)
//	GET  /api/v1/jobs               list jobs
//	GET  /api/v1/jobs/{id}          job status
//	GET  /api/v1/jobs/{id}/result   results (canonical JSON, input order)
//	GET  /api/v1/jobs/{id}/metrics  job metrics registry JSON
//	GET  /api/v1/jobs/{id}/spans    job span recorder (PDS1 binary)
//	GET  /api/v1/jobs/{id}/progress plain-text progress stream until done
//	GET  /api/v1/jobs/{id}/events   lifecycle event chain (?format=chrome)
//	GET  /api/v1/events             SSE stream of all lifecycle events
//	                                (Last-Event-ID resume, ?job= / ?tenant= filter)
//	GET  /api/v1/stats              server + cache + event counters
//	GET  /api/v1/tenants            tenant quotas and live usage (keys never shown)
//	GET  /api/v1/tenants/{name}/usage  one tenant's usage (process + cumulative)
//	GET  /metrics.prom              Prometheus text exposition
//	GET  /healthz                   pure liveness (always 200 while serving)
//	GET  /readyz                    readiness: 503 while draining/saturated
//
// With a tenant registry configured (Options.Tenants), every /api/v1 route
// requires an API key (Authorization: Bearer <key> or X-API-Key): a missing
// or unknown key gets a typed 401 body carrying the request ID, a
// submission above the tenant's priority ceiling a typed 403. Probe and
// scrape paths (/healthz, /readyz, /metrics.prom) and the dashboard stay
// open. Without a registry every route is anonymous — the pre-tenancy
// behavior, byte for byte.
type API struct {
	srv  *Server
	dash *obs.Dashboard
	log  *slog.Logger

	// sseKeepalive is the comment-frame interval on the SSE stream
	// (keeps idle proxies from reaping the connection; test seam).
	sseKeepalive time.Duration
}

// NewAPI wraps a server; dash may be nil. The API logs through the server's
// logger (Options.Log) so one flag configures the whole edge.
func NewAPI(srv *Server, dash *obs.Dashboard) *API {
	return &API{
		srv:          srv,
		dash:         dash,
		log:          srv.Log(),
		sseKeepalive: 15 * time.Second,
	}
}

// resultEnvelope is the GET .../result payload. Results holds each run's
// canonical JSON verbatim, so the bytes a client extracts are exactly the
// bytes the cache stores. The server writes it with resultEnvelopeBody, the
// client reads it with decodeResultEnvelope; the struct is the reference
// both are tested against.
type resultEnvelope struct {
	Job     JobStatus         `json:"job"`
	Results []json.RawMessage `json:"results"`
}

// errorBody is every non-2xx JSON payload. RequestID echoes the request's
// X-Request-ID so a client-reported error correlates with exactly one
// "http_request" log line.
type errorBody struct {
	Error         string `json:"error"`
	RequestID     string `json:"request_id,omitempty"`
	RetryAfterSec int    `json:"retry_after_sec,omitempty"`
	// Tenant and Reason attribute tenant-gated rejections (429/403): who was
	// pushed back and which gate did it.
	Tenant string `json:"tenant,omitempty"`
	Reason string `json:"reason,omitempty"`
	// Peer names the cluster node a 421 Misdirected Request points at: the
	// owner of the submission's keys (or any alive peer while this node
	// drains). Clients resubmit there with X-Aggsimd-Forwarded set.
	Peer string `json:"peer,omitempty"`
}

// logWriteErr logs a response that failed to encode or write (client gone,
// marshal bug) instead of dropping the failure silently; nil is a no-op.
func (a *API) logWriteErr(r *http.Request, code int, err error) {
	if err != nil {
		a.log.Error("response_encode_failed",
			"request_id", svclog.RequestID(r.Context()),
			"route", r.Pattern, "status", code, "err", err.Error())
	}
}

// writeJSON encodes v as an indented JSON reply.
func (a *API) writeJSON(w http.ResponseWriter, r *http.Request, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	a.logWriteErr(r, code, enc.Encode(v))
}

// writeStatus writes a job status reply, byte-identical to writeJSON's.
func (a *API) writeStatus(w http.ResponseWriter, r *http.Request, code int, st JobStatus) {
	body, err := appendJobStatus(nil, st, true)
	if err != nil {
		a.writeJSON(w, r, code, st) // logs the same encoder failure
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, err = w.Write(append(body, '\n'))
	a.logWriteErr(r, code, err)
}

// readRequestBody reads a request body of at most limit bytes into one
// buffer, sized from Content-Length when the client sent one.
func readRequestBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	return readSized(http.MaxBytesReader(w, r.Body, limit), r.ContentLength, limit)
}

func (a *API) writeError(w http.ResponseWriter, r *http.Request, code int, msg string) {
	a.writeJSON(w, r, code, errorBody{Error: msg, RequestID: svclog.RequestID(r.Context())})
}

// apiKey extracts the request's API key: Authorization: Bearer <key> takes
// precedence, X-API-Key is the fallback.
func apiKey(r *http.Request) string {
	if h := r.Header.Get("Authorization"); len(h) > 7 && strings.EqualFold(h[:7], "Bearer ") {
		return strings.TrimSpace(h[7:])
	}
	return r.Header.Get("X-API-Key")
}

// auth guards one API handler with tenant authentication. Anonymous mode
// (no registry) is a pass-through. On success the tenant name is recorded
// in the request context, where the submit handler stamps it into the
// JobSpec and the svclog middleware picks it up for the request log line,
// and the request counts toward the tenant's usage.
// The wrapper runs inside the mux, so 401 responses carry the real route
// pattern in logs and histograms.
func (a *API) auth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		reg := a.srv.Tenants()
		if reg == nil {
			h(w, r)
			return
		}
		key := apiKey(r)
		if key == "" {
			a.writeError(w, r, http.StatusUnauthorized,
				"missing API key (send Authorization: Bearer <key> or X-API-Key)")
			return
		}
		name, ok := reg.Authenticate(key)
		if !ok {
			a.writeError(w, r, http.StatusUnauthorized, "invalid API key")
			return
		}
		a.srv.m.requests.With(name).Inc()
		svclog.SetTenant(r.Context(), name)
		h(w, r)
	}
}

// Handler returns the API handler: the route mux wrapped in the request
// middleware. A dashboard, when given, registers its routes on the same mux
// (outside tenant auth), where "/" serves every path no API route claims.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", a.auth(a.submit))
	mux.HandleFunc("GET /api/v1/jobs", a.auth(a.list))
	mux.HandleFunc("GET /api/v1/jobs/{id}", a.auth(a.status))
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", a.auth(a.result))
	mux.HandleFunc("GET /api/v1/jobs/{id}/metrics", a.auth(a.metrics))
	mux.HandleFunc("GET /api/v1/jobs/{id}/spans", a.auth(a.spans))
	mux.HandleFunc("GET /api/v1/jobs/{id}/profile", a.auth(a.artifact(ArtifactProfile, "application/json")))
	mux.HandleFunc("GET /api/v1/jobs/{id}/folded", a.auth(a.artifact(ArtifactFolded, "text/plain; charset=utf-8")))
	mux.HandleFunc("GET /api/v1/jobs/{id}/decompose", a.auth(a.artifact(ArtifactDecompose, "application/json")))
	mux.HandleFunc("GET /api/v1/jobs/{id}/progress", a.auth(a.progress))
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", a.auth(a.jobEvents))
	mux.HandleFunc("GET /api/v1/events", a.auth(a.eventsSSE))
	mux.HandleFunc("GET /api/v1/stats", a.auth(a.stats))
	mux.HandleFunc("GET /api/v1/tenants", a.auth(a.tenantsList))
	mux.HandleFunc("GET /api/v1/tenants/{name}/usage", a.auth(a.tenantUsage))
	// Cluster peer protocol (DESIGN.md §15): mounted outside tenant auth —
	// peers are not tenants; the shared cluster name (checked per request)
	// and the verify-don't-trust key checks admit them. Without an attached
	// node every route is an inert 404, so the single-node surface is
	// unchanged.
	mux.HandleFunc("POST /api/v1/cluster/heartbeat", a.clusterHeartbeat)
	mux.HandleFunc("POST /api/v1/cluster/compute", a.clusterCompute)
	mux.HandleFunc("GET /api/v1/cluster/lookup", a.clusterLookup)
	mux.HandleFunc("POST /api/v1/cluster/replicate", a.clusterReplicate)
	mux.HandleFunc("GET /metrics.prom", a.metricsProm)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", a.readyz)
	if a.dash != nil {
		a.dash.Register(mux)
	}
	return svclog.Middleware(a.log, a.srv.m.observeHTTP, mux)
}

// Serve serves the API on an already-bound listener (obs.Serve) and returns
// a closer. The cluster harness uses this to know every node's address
// before any node starts.
func (a *API) Serve(ln net.Listener) func() { return obs.Serve(ln, a.Handler()) }

// ListenAndServe binds addr (":0" for an ephemeral port) and serves the API
// in the background (obs.ListenAndServe), returning the bound address and a
// closer that shuts the HTTP listener down.
func (a *API) ListenAndServe(addr string) (string, func(), error) {
	return obs.ListenAndServe(addr, a.Handler())
}

func (a *API) submit(w http.ResponseWriter, r *http.Request) {
	body, err := readRequestBody(w, r, 1<<20)
	var spec JobSpec
	if err == nil {
		spec, err = decodeJobSpec(body)
	}
	if err != nil {
		a.writeError(w, r, http.StatusBadRequest, "bad job spec: "+err.Error())
		return
	}
	// The tenant is the authenticated identity, never the client's claim: a
	// spec-supplied value is overwritten (tenant mode) or cleared (anonymous).
	spec.Tenant = svclog.TenantName(r.Context())
	// Cluster front door: when every key in the batch belongs to one other
	// node (and nothing is cached here), point the client straight at the
	// owner instead of proxying the whole job. One hop at most: a submission
	// that already followed a redirect is served here regardless.
	if r.Header.Get(forwardedHeader) == "" {
		if peer, reason, ok := a.srv.RedirectTarget(spec); ok {
			a.writeJSON(w, r, http.StatusMisdirectedRequest, errorBody{
				Error:     fmt.Sprintf("resubmit to cluster peer %s (%s)", peer, reason),
				RequestID: svclog.RequestID(r.Context()),
				Reason:    reason,
				Peer:      peer,
			})
			return
		}
	}
	st, err := a.srv.Submit(spec)
	if err != nil {
		var fe *ForbiddenError
		switch e := err.(type) {
		case *BusyError:
			sec := int(e.RetryAfter / time.Second) // at least 1: every gate floors it
			// Header and body must agree: clients honor either.
			w.Header().Set("Retry-After", strconv.Itoa(sec))
			a.writeJSON(w, r, http.StatusTooManyRequests, errorBody{
				Error:         err.Error(),
				RequestID:     svclog.RequestID(r.Context()),
				RetryAfterSec: sec,
				Tenant:        e.Tenant,
				Reason:        e.Reason,
			})
		default:
			if err == ErrDraining {
				a.writeError(w, r, http.StatusServiceUnavailable, err.Error())
				return
			}
			if errors.As(err, &fe) {
				a.writeJSON(w, r, http.StatusForbidden, errorBody{
					Error:     err.Error(),
					RequestID: svclog.RequestID(r.Context()),
					Tenant:    fe.Tenant,
					Reason:    fe.Msg,
				})
				return
			}
			a.writeError(w, r, http.StatusBadRequest, err.Error())
		}
		return
	}
	a.writeStatus(w, r, http.StatusAccepted, st)
}

func (a *API) list(w http.ResponseWriter, r *http.Request) {
	jobs := a.srv.Jobs()
	if tenant := r.URL.Query().Get("tenant"); tenant != "" {
		kept := jobs[:0]
		for _, st := range jobs {
			if st.Tenant == tenant {
				kept = append(kept, st)
			}
		}
		jobs = kept
	}
	a.writeJSON(w, r, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{Jobs: jobs})
}

// tenantsList serves every tenant's quotas, live scheduling state and usage
// (never the keys). 404 in anonymous mode, like the event endpoints when the
// event log is off.
func (a *API) tenantsList(w http.ResponseWriter, r *http.Request) {
	if a.srv.Tenants() == nil {
		a.writeError(w, r, http.StatusNotFound, "tenancy disabled on this server (run with -tenants-file)")
		return
	}
	a.writeJSON(w, r, http.StatusOK, struct {
		Tenants []TenantSnapshot `json:"tenants"`
	}{Tenants: a.srv.tenantSnapshots()})
}

// tenantUsage serves one tenant's usage: the process-lifetime counters that
// back the per-tenant Prometheus families, and the cumulative ledger that
// survives restarts.
func (a *API) tenantUsage(w http.ResponseWriter, r *http.Request) {
	if a.srv.Tenants() == nil {
		a.writeError(w, r, http.StatusNotFound, "tenancy disabled on this server (run with -tenants-file)")
		return
	}
	name := r.PathValue("name")
	snap, ok := a.srv.tenantSnapshot(name)
	if !ok {
		a.writeError(w, r, http.StatusNotFound, "no such tenant "+name)
		return
	}
	a.writeJSON(w, r, http.StatusOK, snap)
}

// readyz is the readiness probe: 200 while the server accepts submissions,
// 503 with a JSON reason while draining or the admission window is
// saturated. Liveness stays on /healthz, which never flips.
func (a *API) readyz(w http.ResponseWriter, r *http.Request) {
	type clusterReadiness struct {
		Name    string `json:"name"`
		Self    string `json:"self"`
		Alive   int    `json:"alive"`
		Suspect int    `json:"suspect"`
		Dead    int    `json:"dead"`
	}
	type readiness struct {
		Ready     bool   `json:"ready"`
		Reason    string `json:"reason,omitempty"`
		RequestID string `json:"request_id,omitempty"`
		// Cluster summarizes membership when clustered (absent otherwise, so
		// the single-node body is unchanged). Membership never gates
		// readiness: a node alone in the ring still serves what it owns.
		Cluster *clusterReadiness `json:"cluster,omitempty"`
	}
	ok, reason := a.srv.Ready()
	code := http.StatusOK
	if !ok {
		code = http.StatusServiceUnavailable
	}
	body := readiness{Ready: ok, Reason: reason, RequestID: svclog.RequestID(r.Context())}
	if node := a.srv.clusterNode(); node != nil {
		st := node.Stats()
		body.Cluster = &clusterReadiness{
			Name: st.Name, Self: st.Self,
			Alive: st.Alive, Suspect: st.Suspect, Dead: st.Dead,
		}
	}
	a.writeJSON(w, r, code, body)
}

// jobFor resolves {id} or writes a 404.
func (a *API) jobFor(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := a.srv.Job(id)
	if !ok {
		a.writeError(w, r, http.StatusNotFound, "no such job "+id)
	}
	return j, ok
}

func (a *API) status(w http.ResponseWriter, r *http.Request) {
	if j, ok := a.jobFor(w, r); ok {
		a.writeStatus(w, r, http.StatusOK, a.srv.Status(j))
	}
}

func (a *API) result(w http.ResponseWriter, r *http.Request) {
	j, ok := a.jobFor(w, r)
	if !ok {
		return
	}
	st := a.srv.Status(j)
	js, done := a.srv.Results(j)
	if !done {
		code := http.StatusConflict
		if st.State == JobFailed || st.State == JobAborted {
			a.writeError(w, r, code, fmt.Sprintf("job %s %s: %s", st.ID, st.State, st.Error))
			return
		}
		a.writeError(w, r, code, fmt.Sprintf("job %s is %s (%d/%d)", st.ID, st.State, st.Done, st.Total))
		return
	}
	body, err := resultEnvelopeBody(st, js)
	if err != nil {
		a.writeError(w, r, http.StatusInternalServerError, "encode job status: "+err.Error())
		return
	}
	n := 0
	for _, b := range body {
		n += len(b)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(http.StatusOK)
	_, err = body.WriteTo(w)
	a.logWriteErr(r, http.StatusOK, err)
}

// resultEnvelopeBody lays out the GET .../result body as a list of byte
// slices: the encoded job status, then each cached result verbatim,
// comma-separated. The output is byte-identical to
// json.NewEncoder(w).Encode(resultEnvelope{st, js}) because the cache holds
// only json.Marshal output (ingestResult canonicalizes everything that
// enters from outside), which is already compact and HTML-escaped — so a
// hit is a copy of the stored bytes, with no re-encoding.
func resultEnvelopeBody(st JobStatus, js [][]byte) (net.Buffers, error) {
	head, err := appendJobStatus(append(make([]byte, 0, 512), `{"job":`...), st, false)
	if err != nil {
		return nil, err
	}
	body := make(net.Buffers, 1, 2*len(js)+2)
	body[0] = append(head, `,"results":[`...)
	for i, b := range js {
		if i > 0 {
			body = append(body, envelopeSep)
		}
		body = append(body, b)
	}
	return append(body, envelopeTail), nil
}

var (
	envelopeSep  = []byte{','}
	envelopeTail = []byte("]}\n")
)

func (a *API) metrics(w http.ResponseWriter, r *http.Request) {
	j, ok := a.jobFor(w, r)
	if !ok {
		return
	}
	reg := a.srv.Metrics(j)
	if reg == nil {
		a.writeError(w, r, http.StatusNotFound, "job has no metrics artifact (submit with \"metrics\": true and wait for it to finish)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	reg.WriteJSON(w)
}

func (a *API) spans(w http.ResponseWriter, r *http.Request) {
	j, ok := a.jobFor(w, r)
	if !ok {
		return
	}
	sp := a.srv.Spans(j)
	if sp == nil {
		a.writeError(w, r, http.StatusNotFound, "job has no spans artifact (submit with \"spans\": true and wait for it to finish)")
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	sp.WriteBinary(w)
}

// artifact serves one flight-recorder artifact. The 404 bodies are the
// same actionable shape as the metrics/spans ones: they say exactly how to
// get the artifact to exist.
func (a *API) artifact(kind, contentType string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := a.jobFor(w, r)
		if !ok {
			return
		}
		b, err := a.srv.Artifact(j, kind)
		switch {
		case err == ErrArtifactNotRecorded:
			a.writeError(w, r, http.StatusNotFound,
				fmt.Sprintf("job has no %s artifact (submit with \"telemetry\": true and wait for it to finish)", kind))
			return
		case err == ErrArtifactUnavailable:
			a.writeError(w, r, http.StatusNotFound,
				fmt.Sprintf("job's %s artifact is not in the artifact store (evicted, or every config was a cache hit; raise -artifact-bytes or resubmit with fresh configs)", kind))
			return
		case err != nil:
			a.writeError(w, r, http.StatusInternalServerError, err.Error())
			return
		}
		w.Header().Set("Content-Type", contentType)
		w.Write(b)
	}
}

// jobEvents serves one job's complete lifecycle event chain, as JSON by
// default or as Chrome trace_event JSON with ?format=chrome (loadable in
// chrome://tracing / Perfetto next to the simulator's protocol traces).
func (a *API) jobEvents(w http.ResponseWriter, r *http.Request) {
	el := a.srv.Events()
	if el == nil {
		a.writeError(w, r, http.StatusNotFound, "lifecycle event log disabled on this server")
		return
	}
	j, ok := a.jobFor(w, r)
	if !ok {
		return
	}
	events := el.Job(j.id)
	switch r.URL.Query().Get("format") {
	case "", "json":
		a.writeJSON(w, r, http.StatusOK, struct {
			Job    string            `json:"job"`
			Events []svclog.JobEvent `json:"events"`
		}{Job: j.id, Events: events})
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		a.logWriteErr(r, http.StatusOK, svclog.WriteChromeJSON(w, events))
	default:
		a.writeError(w, r, http.StatusBadRequest, "unknown format (want json or chrome)")
	}
}

// eventsSSE streams lifecycle events as Server-Sent Events: `id:` carries
// the global sequence number, so a reconnecting client sends Last-Event-ID
// and the ring replays everything it missed. ?job= filters to one job's
// events and ?tenant= to one tenant's (filters apply after sequencing — ids
// stay global, resume still works). This is the dashboard's scale path: one
// connection per watcher regardless of job count, where the plain-text
// long-poll held one connection per job.
func (a *API) eventsSSE(w http.ResponseWriter, r *http.Request) {
	el := a.srv.Events()
	if el == nil {
		a.writeError(w, r, http.StatusNotFound, "lifecycle event log disabled on this server")
		return
	}
	var last uint64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		last, _ = strconv.ParseUint(v, 10, 64)
	} else if v := r.URL.Query().Get("last_event_id"); v != "" {
		last, _ = strconv.ParseUint(v, 10, 64)
	}
	jobFilter := r.URL.Query().Get("job")
	tenantFilter := r.URL.Query().Get("tenant")

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl, canFlush := w.(http.Flusher)
	flush := func() {
		if canFlush {
			fl.Flush()
		}
	}

	// Each frame is built in one buffer, reused for the connection's life.
	var frame []byte
	emit := func(ev svclog.JobEvent) bool {
		if (jobFilter != "" && ev.Job != jobFilter) ||
			(tenantFilter != "" && ev.Tenant != tenantFilter) {
			last = ev.Seq // filtered events still advance the cursor
			return true
		}
		frame = strconv.AppendUint(append(frame[:0], "id: "...), ev.Seq, 10)
		frame = append(append(append(frame, "\nevent: "...), ev.Kind...), "\ndata: "...)
		var err error
		if frame, err = svclog.AppendJobEvent(frame, ev); err != nil {
			return false
		}
		frame = append(frame, "\n\n"...)
		if _, err := w.Write(frame); err != nil {
			return false
		}
		last = ev.Seq
		return true
	}

	// Subscribe before replaying so no event falls between replay and live;
	// duplicates are suppressed by the Seq cursor.
	ch, cancel := el.Subscribe(256)
	defer cancel()
	replay, _ := el.Since(last)
	for _, ev := range replay {
		if ev.Seq > last && !emit(ev) {
			return
		}
	}
	flush()

	keepalive := a.sseKeepalive
	if keepalive <= 0 {
		keepalive = 15 * time.Second
	}
	tick := time.NewTicker(keepalive)
	defer tick.Stop()
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if ev.Seq <= last {
				continue
			}
			if ev.Seq > last+1 {
				// The subscriber buffer dropped events; resync from the ring.
				missed, _ := el.Since(last)
				for _, m := range missed {
					if m.Seq > last && m.Seq < ev.Seq && !emit(m) {
						return
					}
				}
			}
			if !emit(ev) {
				return
			}
			// Drain whatever is already buffered before flushing once.
			for drained := false; !drained; {
				select {
				case more, open := <-ch:
					if !open {
						flush()
						return
					}
					if more.Seq > last && !emit(more) {
						return
					}
				default:
					drained = true
				}
			}
			flush()
		case <-tick.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			flush()
		case <-r.Context().Done():
			return
		}
	}
}

// progress streams one "done/total state" line per change (plus a keepalive
// snapshot every second) until the job reaches a terminal state — the HTTP
// face of the job's done counter, which each published result advances.
// Superseded by /api/v1/events (SSE) for watching many jobs at scale, kept
// for single-job CLI use.
func (a *API) progress(w http.ResponseWriter, r *http.Request) {
	j, ok := a.jobFor(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	fl, canFlush := w.(http.Flusher)
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	last := ""
	emit := func(force bool) JobStatus {
		st := a.srv.Status(j)
		line := fmt.Sprintf("%d/%d %s\n", st.Done, st.Total, st.State)
		if force || line != last {
			fmt.Fprint(w, line)
			if canFlush {
				fl.Flush()
			}
			last = line
		}
		return st
	}
	emit(true)
	for {
		select {
		case <-j.Done():
			st := emit(true)
			if st.Error != "" {
				fmt.Fprintf(w, "error: %s\n", st.Error)
			}
			return
		case <-tick.C:
			emit(false)
		case <-r.Context().Done():
			return
		}
	}
}

func (a *API) stats(w http.ResponseWriter, r *http.Request) {
	a.writeJSON(w, r, http.StatusOK, a.srv.Stats())
}

// metricsProm is the Prometheus text-format exposition: a rendering of the
// server's metrics registry (no client_golang); the soak harness parses and
// validates it with svclog.ParsePromText.
func (a *API) metricsProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	a.logWriteErr(r, http.StatusOK, a.srv.m.reg.WritePrometheus(w))
}
