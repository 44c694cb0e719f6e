// Package svclog is the service-edge observability layer: structured JSON
// logging on log/slog with a deterministic-field contract, HTTP middleware
// that stamps request IDs and reports each request's route, status and
// duration, a job lifecycle event log with a global sequence (the SSE resume
// cursor), and the strict parser for the Prometheus text exposition that
// obs.Registry renders. It observes the service edge
// (internal/serve, cmd/aggsimd) the way internal/obs observes the simulator:
// record-only, so enabling it never changes a result.
//
// The log field contract (DESIGN.md §11): every line is one JSON object with
// a fixed key set per message kind. Request lines ("http_request") carry
// exactly time, level, msg, method, path, route, status, bytes, dur_us,
// request_id and remote — a golden test pins the set, so accidental schema
// drift fails CI. In deterministic mode (tests) the wall-clock "time" key is
// dropped and no field ever carries a raw pointer, so log output is stable
// enough to golden-test.
package svclog

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// New returns a structured JSON logger writing to w at the given level.
// With deterministic set, the wall-clock "time" attribute is dropped from
// every line — the mode tests use so a logged line's key set is exactly the
// documented contract with no environment-dependent fields.
func New(w io.Writer, level slog.Leveler, deterministic bool) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	if deterministic {
		opts.ReplaceAttr = func(groups []string, a slog.Attr) slog.Attr {
			if len(groups) == 0 && a.Key == slog.TimeKey {
				return slog.Attr{}
			}
			return a
		}
	}
	return slog.New(slog.NewJSONHandler(w, opts))
}

// nopLevel is above every real level, so a Nop logger's handler reports
// Enabled() == false and the argument lists are never even evaluated.
const nopLevel = slog.Level(127)

// Nop returns a logger that discards everything without formatting it.
func Nop() *slog.Logger {
	return slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: nopLevel}))
}

// ParseLevel maps the -log-level flag values to slog levels.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("svclog: unknown log level %q (want debug, info, warn or error)", s)
}
