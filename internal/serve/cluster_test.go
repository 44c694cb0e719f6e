package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"pimdsm/internal/cluster"
	"pimdsm/internal/machine"
)

// peerHandler returns a server with a cluster node attached (no peers, no
// heartbeats) and its API handler. The runner fails: nothing the peer
// endpoints under test accept may simulate.
func peerHandler(tb testing.TB, name string) (*Server, http.Handler) {
	tb.Helper()
	s, err := New(Options{Workers: 1, Run: func([]machine.Config, func(int, *machine.Result)) ([]*machine.Result, error) {
		return nil, errors.New("peer endpoint simulated")
	}})
	if err != nil {
		tb.Fatal(err)
	}
	node, err := cluster.New(cluster.Config{Name: name, Self: name + "-node:1", HeartbeatEvery: time.Hour})
	if err != nil {
		tb.Fatal(err)
	}
	s.AttachCluster(node)
	tb.Cleanup(func() { s.Shutdown(context.Background()) })
	return s, NewAPI(s, nil).Handler()
}

// peerRequest sends one cluster-internal request, name header set.
func peerRequest(h http.Handler, name, method, target string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	req.Header.Set(clusterHeader, name)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestClusterLookupRejectsMalformedKey: the lookup key is exactly 1..16 hex
// digits. Anything else is 400, never a probe of whatever prefix parsed.
func TestClusterLookupRejectsMalformedKey(t *testing.T) {
	s, h := peerHandler(t, "lookup")
	cs := ConfigSpec{Arch: "agg", App: "fft", Scale: 0.02, Threads: 8, Pressure: 0.75, DRatio: 1}.canonical()
	key := cs.Key(0)
	res, js, err := ingestResult(markupResult(0))
	if err != nil {
		t.Fatal(err)
	}
	s.Cache().Fulfill(key, 0, cs, res, js)
	// Keys that a loose prefix parse would have mapped onto resident ones.
	s.Cache().Fulfill(0x12, 0, cs, res, js)
	s.Cache().Fulfill(0, 0, cs, res, js)

	lookup := func(q string) *httptest.ResponseRecorder {
		return peerRequest(h, "lookup", "GET", "/api/v1/cluster/lookup?key="+url.QueryEscape(q), nil)
	}
	for _, q := range []string{"12zz", "0x1f", "+1f", "", "1" + strings.Repeat("0", 16)} {
		if rec := lookup(q); rec.Code != http.StatusBadRequest {
			t.Errorf("key %q: HTTP %d, want 400", q, rec.Code)
		}
	}
	if rec := lookup(fmt.Sprintf("%016x", key)); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), js) {
		t.Errorf("resident key: HTTP %d, body %.80q, want 200 with its bytes", rec.Code, rec.Body.Bytes())
	}
	if rec := lookup(fmt.Sprintf("%016x", key^1)); rec.Code != http.StatusNotFound {
		t.Errorf("non-resident key: HTTP %d, want 404", rec.Code)
	}
}

// FuzzClusterReplicate feeds arbitrary bodies to the replica endpoint. It
// accepts (204) exactly when the body is one indexEntry whose key re-derives
// from its spec and seed and whose result ingests, and then serves the
// ingested canonical bytes under that key; any other answer leaves the cache
// as it was. Seeds live in testdata/fuzz/FuzzClusterReplicate.
// /cluster/compute stays out of this target: a payload it accepts would
// simulate.
func FuzzClusterReplicate(f *testing.F) {
	s, h := peerHandler(f, "fuzz")
	f.Fuzz(func(t *testing.T, body []byte) {
		before := s.Cache().Len()
		rec := peerRequest(h, "fuzz", "POST", "/api/v1/cluster/replicate", body)

		var ie indexEntry
		var js []byte
		ok := json.Unmarshal(body, &ie) == nil && ie.Key == keyHex(ie.Spec.Key(ie.Seed))
		if ok {
			var err error
			_, js, err = ingestResult(ie.Result)
			ok = err == nil
		}
		if !ok {
			if rec.Code == http.StatusNoContent {
				t.Fatalf("accepted a replica that does not decode, re-derive and ingest: %q", body)
			}
			if after := s.Cache().Len(); after != before {
				t.Fatalf("HTTP %d changed the cache from %d to %d entries", rec.Code, before, after)
			}
			return
		}
		if rec.Code != http.StatusNoContent {
			t.Fatalf("valid replica: HTTP %d: %s", rec.Code, rec.Body.Bytes())
		}
		if _, got, hit := s.Cache().Peek(ie.Spec.Key(ie.Seed), ""); !hit || !bytes.Equal(got, js) {
			t.Fatalf("cache serves %.80q (resident %v), want the ingested %.80q", got, hit, js)
		}
	})
}
