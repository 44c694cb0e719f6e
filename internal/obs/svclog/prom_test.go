package svclog

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"pimdsm/internal/obs"
	"pimdsm/internal/stats"
)

// render writes r's Prometheus exposition and parses it back strictly.
func render(t testing.TB, r *obs.Registry) (map[string]*PromFamily, string) {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParsePromText(buf.String())
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}
	return fams, buf.String()
}

// TestPromWriterRoundTrip: a counter, a callback gauge and a labelled
// latency histogram rendered by the registry's Prometheus writer pass the
// strict parser with their values intact.
func TestPromWriterRoundTrip(t *testing.T) {
	r := obs.NewRegistry()
	r.CounterVec("pimdsm_jobs_submitted_total", obs.Opts{Help: "Jobs admitted"}).With().Add(42)
	r.GaugeFunc("pimdsm_queue_depth", obs.Opts{Help: "Jobs waiting to run"}, func([]string) float64 { return 3 })
	h := r.HistogramVec("pimdsm_http_request_duration_us", obs.LatBounds(),
		obs.Opts{Help: "Request latency (pow2 buckets, microseconds)", Labels: []string{"route"}})
	h.With("GET /api/v1/jobs").Observe(150)
	h.With("GET /api/v1/jobs").Observe(3000)
	h.With("POST /api/v1/jobs").Observe(90)
	// Route patterns carry literal braces ("/jobs/{id}") inside quoted label
	// values; the parser must not mistake that `}` for the label-set end.
	h.With("GET /api/v1/jobs/{id}").Observe(120)

	fams, text := render(t, r)
	if fams["pimdsm_jobs_submitted_total"].Samples[0].Value != 42 {
		t.Fatalf("counter value lost: %+v", fams["pimdsm_jobs_submitted_total"])
	}
	if fams["pimdsm_queue_depth"].Samples[0].Value != 3 {
		t.Fatalf("gauge value lost: %+v", fams["pimdsm_queue_depth"])
	}
	hist := fams["pimdsm_http_request_duration_us"]
	if hist == nil || hist.Type != "histogram" {
		t.Fatalf("histogram family missing: %+v", hist)
	}
	// Three routes x (NumLatBuckets buckets + sum + count).
	wantSamples := 3 * (stats.NumLatBuckets + 2)
	if len(hist.Samples) != wantSamples {
		t.Fatalf("histogram has %d samples, want %d", len(hist.Samples), wantSamples)
	}
	// The bucket edges are the LatHist's (2^i - 1): 150 lands at le="255".
	if !strings.Contains(text, `pimdsm_http_request_duration_us_bucket{route="GET /api/v1/jobs",le="127"} 0`) ||
		!strings.Contains(text, `pimdsm_http_request_duration_us_bucket{route="GET /api/v1/jobs",le="255"} 1`) ||
		!strings.Contains(text, `pimdsm_http_request_duration_us_sum{route="GET /api/v1/jobs"} 3150`) {
		t.Fatalf("bucket edges or sum off:\n%s", text)
	}
}

func TestParsePromTextRejectsGarbage(t *testing.T) {
	bad := []string{
		"no_type_decl 1", // sample without TYPE
		"# TYPE x counter\nx{le=\"unterminated 1", // broken label set
		"# TYPE x counter\nx notanumber",          // bad value
		"# TYPE x wat\nx 1",                       // unknown type
	}
	for _, text := range bad {
		if _, err := ParsePromText(text); err == nil {
			t.Fatalf("ParsePromText accepted %q", text)
		}
	}
}

func TestParsePromTextCatchesNonCumulativeHistogram(t *testing.T) {
	text := strings.Join([]string{
		`# TYPE h histogram`,
		`h_bucket{le="1"} 5`,
		`h_bucket{le="3"} 4`, // decreasing: invalid
		`h_bucket{le="+Inf"} 6`,
		`h_sum 10`,
		`h_count 6`,
	}, "\n")
	if _, err := ParsePromText(text); err == nil {
		t.Fatal("non-cumulative histogram accepted")
	}
	text = strings.Join([]string{
		`# TYPE h histogram`,
		`h_bucket{le="1"} 5`,
		`h_bucket{le="+Inf"} 6`,
		`h_sum 10`,
		`h_count 7`, // count != +Inf bucket
	}, "\n")
	if _, err := ParsePromText(text); err == nil {
		t.Fatal("count/+Inf mismatch accepted")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := obs.NewRegistry()
	r.GaugeFunc("m", obs.Opts{
		Help:   "help with \\ and\nnewline",
		Labels: []string{"k"},
		Rows:   func() [][]string { return [][]string{{`quote " back \ nl` + "\n"}} },
	}, func([]string) float64 { return 1 })
	fams, _ := render(t, r)
	if len(fams["m"].Samples) != 1 {
		t.Fatalf("sample lost: %+v", fams["m"])
	}
}

func TestLabelValueRoundTrip(t *testing.T) {
	// Writer escaping and parser unescaping must be exact inverses, including
	// the order-sensitive cases: a literal backslash followed by 'n' (written
	// as `\\n`) must NOT come back as a newline, and values ending in a quote
	// must not lose it to over-eager quote trimming.
	values := []string{
		`plain`,
		`with "quotes"`,
		`ends with quote"`,
		`"starts with quote`,
		"real\nnewline",
		`literal \n two chars`,
		`backslash \ alone`,
		`trailing backslash \`,
		"\\\n", // backslash then newline
		`\\n`,  // two backslashes then n
		`mix " of \ every` + "\n" + `thing"\`,
	}
	for _, v := range values {
		r := obs.NewRegistry()
		r.CounterVec("m", obs.Opts{Help: "round trip", Labels: []string{"k"}}).With(v).Inc()
		fams, _ := render(t, r)
		got := fams["m"].Samples[0].Labels["k"]
		if got != v {
			t.Errorf("label value round trip: wrote %q, parsed %q", v, got)
		}
	}
}

// FuzzPromRoundTrip: whatever label values, help text and sample value go
// in, WritePrometheus output passes the strict parser and comes back with
// the same labels and value (NaN as NaN). Seeds: testdata/fuzz.
func FuzzPromRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, route, other, help string, v float64) {
		r := obs.NewRegistry()
		r.GaugeFunc("fuzz_gauge", obs.Opts{
			Help:   help,
			Labels: []string{"route", "other"},
			Rows:   func() [][]string { return [][]string{{route, other}} },
		}, func([]string) float64 { return v })
		r.CounterVec("fuzz_total", obs.Opts{Help: help, Labels: []string{"route"}}).With(route).Add(7)
		r.HistogramVec("fuzz_hist", obs.LatBounds(), obs.Opts{Help: help, Labels: []string{"route"}}).With(other).Observe(5)

		fams, text := render(t, r)
		g := fams["fuzz_gauge"]
		if g == nil || len(g.Samples) != 1 {
			t.Fatalf("gauge family lost:\n%s", text)
		}
		s := g.Samples[0]
		if s.Labels["route"] != route || s.Labels["other"] != other || len(s.Labels) != 2 {
			t.Fatalf("labels %q, want route=%q other=%q:\n%s", s.Labels, route, other, text)
		}
		if !(s.Value == v || math.IsNaN(v) && math.IsNaN(s.Value)) {
			t.Fatalf("value %v, want %v:\n%s", s.Value, v, text)
		}
		c := fams["fuzz_total"]
		if c == nil || len(c.Samples) != 1 || c.Samples[0].Labels["route"] != route || c.Samples[0].Value != 7 {
			t.Fatalf("counter family lost:\n%s", text)
		}
		h := fams["fuzz_hist"]
		if h == nil || len(h.Samples) != stats.NumLatBuckets+2 {
			t.Fatalf("histogram family lost:\n%s", text)
		}
	})
}
