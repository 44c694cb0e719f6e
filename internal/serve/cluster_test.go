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
	"pimdsm/internal/stats"
)

// peerHandler returns a server with a cluster node attached (no peers, no
// heartbeats) and its API handler. The runner fails: nothing the peer
// endpoints under test accept may simulate.
func peerHandler(tb testing.TB, name string) (*Server, http.Handler) {
	tb.Helper()
	s, err := New(Options{Slots: 1, Run: func(machine.Config) (*machine.Result, error) {
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

// replicaSpec is the config every replica fixture below is a result of.
var replicaSpec = ConfigSpec{Arch: "agg", App: "fft", Scale: 0.02, Threads: 8, Pressure: 0.75, DRatio: 1}

// replicaResult is the canonical JSON of a result running replicaSpec could
// produce: markupResult(0), whose strings need HTML escaping, with one
// per-thread record per thread.
func replicaResult(tb testing.TB) []byte {
	var res machine.Result
	if err := json.Unmarshal(markupResult(0), &res); err != nil {
		tb.Fatal(err)
	}
	res.PerThread = make([]stats.Thread, res.Threads)
	js, err := canonicalResultJSON(&res)
	if err != nil {
		tb.Fatal(err)
	}
	return js
}

// TestClusterLookupRejectsMalformedKey: the lookup key is exactly 1..16 hex
// digits. Anything else is 400, never a probe of whatever prefix parsed.
func TestClusterLookupRejectsMalformedKey(t *testing.T) {
	s, h := peerHandler(t, "lookup")
	cs := replicaSpec.canonical()
	key := cs.Key(0)
	res, js, err := ingestResult(replicaResult(t), cs)
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
// from its spec and seed and whose result is non-null, names the spec's
// architecture, application and thread count, has a per-thread record for
// each thread and ran for some cycles, and then serves the result's
// canonical bytes under that key; any other answer leaves the cache
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
			// The result must be one running the spec can produce.
			var res *machine.Result
			c := ie.Spec.canonical()
			ok = json.Unmarshal(ie.Result, &res) == nil && res != nil &&
				string(res.Arch) == c.Arch && res.App == c.App && res.Threads == c.Threads &&
				len(res.PerThread) == res.Threads && res.Breakdown.Exec > 0
			if ok {
				js, _ = json.Marshal(res)
			}
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

// TestClusterReplicateRejectsNonResults: a replica whose key re-derives but
// whose result is null, empty, for another config, short of per-thread
// records or cycle-free is 400 and leaves the cache as it was; so does a
// persisted index entry of the same kind on load.
func TestClusterReplicateRejectsNonResults(t *testing.T) {
	s, h := peerHandler(t, "results")
	cs := replicaSpec.canonical()
	valid := replicaResult(t)
	var res machine.Result
	if err := json.Unmarshal(valid, &res); err != nil {
		t.Fatal(err)
	}
	variant := func(edit func(*machine.Result)) []byte {
		r := res
		edit(&r)
		js, _ := json.Marshal(&r)
		return js
	}
	bad := map[string][]byte{
		"null":         []byte("null"),
		"empty_object": []byte("{}"),
		"other_arch":   variant(func(r *machine.Result) { r.Arch = machine.NUMA }),
		"other_app":    variant(func(r *machine.Result) { r.App = "lu" }),
		"other_threads": variant(func(r *machine.Result) {
			r.Threads = 16
			r.PerThread = make([]stats.Thread, 16)
		}),
		"short_per_thread": variant(func(r *machine.Result) { r.PerThread = r.PerThread[:7] }),
		"no_cycles":        variant(func(r *machine.Result) { r.Breakdown.Exec = 0 }),
	}
	entry := func(result []byte) indexEntry {
		return indexEntry{Key: keyHex(cs.Key(0)), Spec: cs, Result: result}
	}
	for name, result := range bad {
		body, _ := json.Marshal(entry(result))
		if rec := peerRequest(h, "results", "POST", "/api/v1/cluster/replicate", body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, rec.Code)
		}
		if n := s.Cache().Len(); n != 0 {
			t.Fatalf("%s: cache holds %d entries, want none", name, n)
		}
		if n := NewCache(8).LoadIndex(&index{Entries: []indexEntry{entry(result)}}); n != 0 {
			t.Errorf("%s: LoadIndex restored %d entries, want none", name, n)
		}
	}
	body, _ := json.Marshal(entry(valid))
	if rec := peerRequest(h, "results", "POST", "/api/v1/cluster/replicate", body); rec.Code != http.StatusNoContent {
		t.Fatalf("valid replica: HTTP %d: %s", rec.Code, rec.Body.Bytes())
	}
}

// TestClusterComputeRejectsTrailingValue: /cluster/compute reads exactly
// one JSON value. The same request without its trailing value is accepted
// and reaches resolution, where this peer's runner fails it.
func TestClusterComputeRejectsTrailingValue(t *testing.T) {
	_, h := peerHandler(t, "compute")
	cs := ConfigSpec{Arch: "agg", App: "fft", Scale: 0.01, Threads: 2, Pressure: 0.75, DRatio: 1}
	body, _ := json.Marshal(clusterComputeRequest{Spec: cs, Key: keyHex(cs.Key(0))})
	rec := peerRequest(h, "compute", "POST", "/api/v1/cluster/compute", append(body, " {}"...))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("trailing value: HTTP %d: %s, want 400", rec.Code, rec.Body.Bytes())
	}
	rec = peerRequest(h, "compute", "POST", "/api/v1/cluster/compute", body)
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "peer endpoint simulated") {
		t.Fatalf("one value: HTTP %d: %s, want the runner's 500", rec.Code, rec.Body.Bytes())
	}
}
