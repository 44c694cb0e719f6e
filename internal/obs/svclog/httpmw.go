package svclog

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// RequestIDHeader is the request-correlation header: an inbound value is
// propagated, a missing one is stamped, and the response always echoes it.
const RequestIDHeader = "X-Request-ID"

type ctxKey int

const (
	requestIDKey ctxKey = 0
	tenantKey    ctxKey = 1
)

// RequestID returns the request ID the middleware stamped into ctx ("" when
// the request did not pass through the middleware).
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// tenantHolder carries the authenticated tenant name from an inner auth
// layer back out to the middleware's log line: the middleware installs the
// holder before routing, authentication fills it in mid-request, and the
// request log reads it after the handler returns. The mutex keeps the
// handoff race-clean for handlers that write from helper goroutines.
type tenantHolder struct {
	mu   sync.Mutex
	name string
}

// SetTenant records the authenticated tenant for this request. It is a
// no-op when the request did not pass through Middleware.
func SetTenant(ctx context.Context, name string) {
	if h, ok := ctx.Value(tenantKey).(*tenantHolder); ok {
		h.mu.Lock()
		h.name = name
		h.mu.Unlock()
	}
}

// TenantName returns the tenant recorded by SetTenant ("" when the request
// is anonymous or did not pass through Middleware).
func TenantName(ctx context.Context) string {
	if h, ok := ctx.Value(tenantKey).(*tenantHolder); ok {
		h.mu.Lock()
		defer h.mu.Unlock()
		return h.name
	}
	return ""
}

// reqSeq and procToken make generated request IDs unique across concurrent
// requests and across daemon restarts without consulting the clock.
var (
	reqSeq    atomic.Uint64
	procToken = func() string {
		var b [4]byte
		rand.Read(b[:])
		return hex.EncodeToString(b[:])
	}()
)

func newRequestID() string {
	return fmt.Sprintf("r-%s-%06d", procToken, reqSeq.Add(1))
}

// respWriter captures the status code and byte count without disturbing
// streaming: Flush passes through so SSE and progress handlers keep working
// behind the middleware.
type respWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *respWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *respWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *respWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Middleware wraps next with the service-edge request observer: it stamps or
// propagates X-Request-ID (echoed on the response and available via
// RequestID(ctx)), logs one "http_request" line per request, and hands each
// completed request's route pattern ("GET /api/v1/jobs/{id}", so path
// parameters do not explode the key space), status and duration to observe.
// log and observe may be nil (each facet individually disabled); the request
// ID is stamped regardless so error bodies stay correlatable.
func Middleware(log *slog.Logger, observe func(route string, status int, d time.Duration), next http.Handler) http.Handler {
	if log == nil {
		log = Nop()
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		ctx := context.WithValue(r.Context(), requestIDKey, id)
		holder := &tenantHolder{}
		ctx = context.WithValue(ctx, tenantKey, holder)
		r = r.WithContext(ctx)

		rw := &respWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(rw, r)
		dur := time.Since(start)

		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		status := rw.status
		if status == 0 {
			status = http.StatusOK
		}
		if observe != nil {
			observe(route, status, dur)
		}
		level := slog.LevelInfo
		switch {
		case status >= 500:
			level = slog.LevelError
		case status >= 400:
			level = slog.LevelWarn
		}
		// The attribute set is a logged contract (see the golden key-set
		// test): exactly these keys on anonymous requests, plus "tenant"
		// when an inner auth layer called SetTenant.
		attrs := []slog.Attr{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("route", route),
			slog.Int("status", status),
			slog.Int64("bytes", rw.bytes),
			slog.Int64("dur_us", dur.Microseconds()),
			slog.String("request_id", id),
			slog.String("remote", r.RemoteAddr),
		}
		if tenant := TenantName(r.Context()); tenant != "" {
			attrs = append(attrs, slog.String("tenant", tenant))
		}
		log.LogAttrs(r.Context(), level, "http_request", attrs...)
	})
}
