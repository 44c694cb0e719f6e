package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"pimdsm/internal/cluster"
	"pimdsm/internal/jsonwire"
	"pimdsm/internal/machine"
	"pimdsm/internal/sim"
)

// encodeEnvelopeOld is the result endpoint's previous writer: the reference
// resultEnvelopeBody must match byte for byte.
func encodeEnvelopeOld(t testing.TB, st JobStatus, js [][]byte) []byte {
	t.Helper()
	env := resultEnvelope{Job: st, Results: make([]json.RawMessage, len(js))}
	for i, b := range js {
		env.Results[i] = b
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(env); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// markupResult is a canonical result whose strings need HTML escaping.
func markupResult(i int) []byte {
	res := &machine.Result{
		Arch: machine.AGG, App: "fft", Threads: 8,
		AuditSamples: []string{`<a href="x">&amp;</a>`, "line sep"},
		PhaseEnd:     map[int]sim.Time{2: 20, 1: sim.Time(10 + i)},
	}
	res.Breakdown.Exec = sim.Time(1000 + i)
	js, err := canonicalResultJSON(res)
	if err != nil {
		panic(err)
	}
	return js
}

func TestResultEnvelopeBodyGolden(t *testing.T) {
	at := time.Date(2026, 3, 1, 12, 0, 0, 123, time.UTC)
	later := at.Add(time.Second)
	statuses := map[string]JobStatus{
		"plain": {ID: "j1", State: JobDone, Total: 1, Done: 1, SubmittedAt: at},
		"markup": {ID: "j2", Name: `x<y>&"z"`, Tenant: `t<&>"`, State: JobDone,
			Total: 7, Done: 7, CacheHits: 7, SubmittedAt: at, StartedAt: &at, FinishedAt: &later},
		"cluster": {ID: "j3", State: JobDone, Total: 7, Done: 7, Forwarded: 3,
			Telemetry: true, Priority: 4, SubmittedAt: at},
	}
	batches := map[string][][]byte{"empty": {}, "one": {markupResult(0)}}
	for i := 0; i < 7; i++ {
		batches["seven"] = append(batches["seven"], markupResult(i))
	}
	for sn, st := range statuses {
		for bn, js := range batches {
			body, err := resultEnvelopeBody(st, js)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			body.WriteTo(&got)
			if want := encodeEnvelopeOld(t, st, js); !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s/%s: body differs from json.Encoder:\n got %s\nwant %s", sn, bn, got.Bytes(), want)
			}
		}
	}
}

// markupRunner is fakeRunner with HTML-sensitive strings in every result.
func markupRunner(cfg machine.Config) (*machine.Result, error) {
	res := &machine.Result{Arch: cfg.Arch, App: cfg.App.Name, Threads: cfg.Threads,
		AuditSamples: []string{`<b>"&"</b>`}}
	res.Breakdown.Exec = 1000
	return res, nil
}

// fig6Batch is one application's Figure-6 batch: NUMA, COMA and AGG at both
// memory pressures, seven configs.
func fig6Batch(app string, threads int, scale float64) []ConfigSpec {
	mk := func(arch string, pressure float64, dratio int) ConfigSpec {
		return ConfigSpec{Arch: arch, App: app, Scale: scale, Threads: threads, Pressure: pressure, DRatio: dratio}
	}
	return []ConfigSpec{
		mk("numa", 0.75, 0), mk("coma", 0.25, 0), mk("coma", 0.75, 0),
		mk("agg", 0.25, 1), mk("agg", 0.75, 1), mk("agg", 0.25, 4), mk("agg", 0.75, 4),
	}
}

// TestHTTPResultGolden drives the real endpoint: for done jobs the body must
// equal what the previous json.Encoder writer produced, and Content-Length
// must be the body's length.
func TestHTTPResultGolden(t *testing.T) {
	s, c := startAPI(t, Options{Slots: 1, Run: markupRunner, Tenants: twoTenants(t, []Tenant{
		{Name: `t<&>"`, Key: "markup-key-0001"},
	})})
	c.APIKey = "markup-key-0001"
	check := func(label string, j *Job) {
		t.Helper()
		req, _ := http.NewRequest("GET", "http://"+c.Base+"/api/v1/jobs/"+j.id+"/result", nil)
		req.Header.Set("Authorization", "Bearer "+c.APIKey)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", label, resp.StatusCode, body)
		}
		js, _ := s.Results(j)
		if want := encodeEnvelopeOld(t, s.Status(j), js); !bytes.Equal(body, want) {
			t.Errorf("%s: body differs from json.Encoder:\n got %s\nwant %s", label, body, want)
		}
		if resp.ContentLength != int64(len(body)) {
			t.Errorf("%s: Content-Length %d, body is %d bytes", label, resp.ContentLength, len(body))
		}
	}

	for _, spec := range []JobSpec{
		{Name: `one<&>"`, Configs: spec1("fft").Configs},
		{Name: `seven<&>"`, Configs: fig6Batch("fft", 8, 0.02)},
	} {
		st, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, s, st.ID)
		j, _ := s.Job(st.ID)
		check(spec.Name, j)

		// Cluster attribution, as a job with forwarded configs reports it.
		s.mu.Lock()
		j.forwarded = 2
		s.mu.Unlock()
		check(spec.Name+"/cluster", j)
	}
}

// TestIngestCanonicalizes feeds a result into the cache in non-canonical
// form through two ingest paths — an indented persisted index and a
// whitespace-padded replica push — and requires both to serve exactly the
// bytes json.Marshal gives for a direct run.
func TestIngestCanonicalizes(t *testing.T) {
	cs := ConfigSpec{Arch: "agg", App: "fft", Scale: 0.02, Threads: 8, Pressure: 0.75, DRatio: 1}
	res, err := machine.Run(cs.canonical().Config())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(res)
	indented, _ := json.MarshalIndent(res, "", "\t")
	padded := append(append([]byte(" \n"), indented...), " \t\n"...)
	key := cs.canonical().Key()
	never := func(machine.Config) (*machine.Result, error) {
		t.Error("a cached config was simulated")
		return nil, context.Canceled
	}
	serves := func(label string, s *Server, c *Client) {
		t.Helper()
		st, err := c.Submit(JobSpec{Configs: []ConfigSpec{cs}})
		if err != nil {
			t.Fatal(err)
		}
		fin := waitJob(t, s, st.ID)
		if fin.CacheHits != 1 {
			t.Fatalf("%s: %+v, want one cache hit", label, fin)
		}
		j, _ := s.Job(st.ID)
		js, _ := s.Results(j)
		if !bytes.Equal(js[0], want) {
			t.Errorf("%s: Server.Results bytes are not canonical:\n%.200s", label, js[0])
		}
		_, raw, err := c.Result(st.ID)
		if err != nil || len(raw) != 1 || !bytes.Equal(raw[0], want) {
			t.Errorf("%s: HTTP result not canonical (%v): %.200s", label, err, raw)
		}
	}

	// Results persisted before Result.Shards was removed still carry it;
	// they load under the same KeyVersion and serve without the member.
	legacy := bytes.Replace(want, []byte(`"Breakdown":`), []byte(`"Shards":1,"Breakdown":`), 1)
	if bytes.Equal(legacy, want) {
		t.Fatal("no Breakdown member to splice the legacy field before")
	}
	for _, in := range []struct {
		name   string
		result []byte
	}{{"index", padded}, {"index-legacy", legacy}} {
		t.Run(in.name, func(t *testing.T) {
			path := t.TempDir() + "/cache.json"
			// Marshal compacts a RawMessage, so splice the stored form in after.
			idx, _ := json.Marshal(index{fileVersion: fileVersion{cacheIndexVersion},
				Entries: []indexEntry{{Key: keyHex(key), Spec: cs.canonical(), Result: want}}})
			if err := os.WriteFile(path, bytes.Replace(idx, want, in.result, 1), 0o644); err != nil {
				t.Fatal(err)
			}
			s, c := startAPI(t, Options{Slots: 1, CachePath: path, Run: never})
			if s.Cache().Len() != 1 {
				t.Fatalf("restored %d entries, want 1", s.Cache().Len())
			}
			serves(in.name, s, c)
		})
	}

	t.Run("replica", func(t *testing.T) {
		s, c := startAPI(t, Options{Slots: 1, Run: never})
		node, err := cluster.New(cluster.Config{Name: "ingest", Self: c.Base, HeartbeatEvery: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		s.AttachCluster(node)
		replica, _ := json.Marshal(indexEntry{Key: keyHex(key), Spec: cs.canonical(), Result: want})
		body := bytes.Replace(replica, want, padded, 1)
		req, _ := http.NewRequest("POST", "http://"+c.Base+"/api/v1/cluster/replicate", bytes.NewReader(body))
		req.Header.Set(clusterHeader, "ingest")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("replicate: HTTP %d", resp.StatusCode)
		}
		serves("replica", s, c)
	})
}

// FuzzDecodeResultEnvelope holds the one-pass decoder to json.Unmarshal:
// both must fail or both succeed, with the same Job and the same Results,
// byte for byte and nil for nil.
func FuzzDecodeResultEnvelope(f *testing.F) {
	at := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	st := JobStatus{ID: "j1", Name: `n<&>"`, State: JobDone, Total: 7, Done: 7, SubmittedAt: at, FinishedAt: &at}
	var seven [][]byte
	for i := 0; i < 7; i++ {
		seven = append(seven, markupResult(i))
	}
	for _, js := range [][][]byte{nil, {markupResult(0)}, seven} {
		body, err := resultEnvelopeBody(st, js)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		body.WriteTo(&buf)
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gotErr := decodeResultEnvelope(body)
		var want resultEnvelope
		wantErr := json.Unmarshal(body, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decode error %v, json.Unmarshal error %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(got.Job, want.Job) {
			t.Fatalf("job %+v, json.Unmarshal %+v", got.Job, want.Job)
		}
		if (got.Results == nil) != (want.Results == nil) || len(got.Results) != len(want.Results) {
			t.Fatalf("results %q, json.Unmarshal %q", got.Results, want.Results)
		}
		for i := range want.Results {
			if !bytes.Equal(got.Results[i], want.Results[i]) {
				t.Fatalf("result %d is %q, json.Unmarshal %q", i, got.Results[i], want.Results[i])
			}
		}
	})
}

// validJSON is the scanner's verdict on a whole document: one value, then
// nothing but whitespace.
func validJSON(b []byte) bool {
	i := jsonwire.ScanValue(b, jsonwire.SkipSpace(b, 0), 0)
	return i >= 0 && jsonwire.SkipSpace(b, i) == len(b)
}

// nested returns depth arrays, or depth objects, nested around an empty
// one of the same kind.
func nested(depth int, object bool) []byte {
	open, inner, close := "[", "[]", "]"
	if object {
		open, inner, close = `{"a":`, "{}", "}"
	}
	return []byte(strings.Repeat(open, depth-1) + inner + strings.Repeat(close, depth-1))
}

// scanCases are the edges of json.Valid's language; the same inputs are
// FuzzScanJSON's committed seeds.
var scanCases = []struct {
	name  string
	in    []byte
	valid bool
}{
	{"depth_10000_array", nested(10000, false), true},
	{"depth_10001_array", nested(10001, false), false},
	{"depth_10000_object", nested(10000, true), true},
	{"depth_10001_object", nested(10001, true), false},
	{"control_byte_in_string", []byte("\"a\x1fb\""), false},
	{"del_in_string", []byte("\"a\x7fb\""), true},
	{"every_escape", []byte(`"\" \\ \/ \b \f \n \r \t \u00e9 \uABcd"`), true},
	{"bad_escape", []byte(`"\x"`), false},
	{"bad_u_escape", []byte(`"\u12g4"`), false},
	{"short_u_escape", []byte(`"\u12"`), false},
	{"invalid_utf8", []byte("\"\xff\xfe\xc0\x80\""), true},
	{"unterminated_string", []byte(`"abc`), false},
	{"number_leading_zero", []byte(`01`), false},
	{"number_bare_dot", []byte(`1.`), false},
	{"number_bare_exponent", []byte(`1e`), false},
	{"number_bare_minus", []byte(`-`), false},
	{"number_minus_zero", []byte(`-0`), true},
	{"number_signed_exponent", []byte(`1E+2`), true},
	{"number_fraction_exponent", []byte(`-12.50e-003`), true},
	{"number_plus", []byte(`+1`), false},
	{"literals", []byte(`[true,false,null]`), true},
	{"literal_prefix", []byte(`tru`), false},
	{"literal_capital", []byte(`True`), false},
	{"trailing_garbage", []byte(`{"job":null} x`), false},
	{"trailing_value", []byte(`1 2`), false},
	{"trailing_comma", []byte(`[1,]`), false},
	{"missing_colon", []byte(`{"a" 1}`), false},
	{"non_string_key", []byte(`{1:2}`), false},
	{"empty", []byte{}, false},
	{"whitespace_only", []byte(" \t\n\r "), false},
	{"json_whitespace", []byte(" \t\n\r[ 1 , {\r\"a\"\t:\n2 } ]\n"), true},
	{"form_feed_space", []byte("\f1"), false},
	{"nbsp_space", []byte("\u00a01"), false},
}

// TestScanMatchesValid walks the scanner over the edges of json.Valid's
// language: it must agree with json.Valid and with the expected verdict,
// and an envelope split may only succeed on a valid body.
func TestScanMatchesValid(t *testing.T) {
	for _, tc := range scanCases {
		if got, want := validJSON(tc.in), json.Valid(tc.in); got != want || got != tc.valid {
			t.Errorf("%s: scanner %v, json.Valid %v, expected %v", tc.name, got, want, tc.valid)
		}
		// The same value as the job member of an envelope.
		env := append(append([]byte(`{"job":`), tc.in...), `,"results":[]}`...)
		if _, _, ok := scanResultEnvelope(env); ok != json.Valid(env) {
			t.Errorf("%s: envelope split ok=%v, json.Valid %v", tc.name, ok, !ok)
		}
	}
}

// FuzzScanJSON holds the scanner to json.Valid on arbitrary bytes, and the
// envelope split to succeed only on valid bodies.
func FuzzScanJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		valid := json.Valid(body)
		if got := validJSON(body); got != valid {
			t.Fatalf("scanner %v, json.Valid %v", got, valid)
		}
		if _, _, ok := scanResultEnvelope(body); ok && !valid {
			t.Fatal("envelope split succeeded on invalid JSON")
		}
	})
}
