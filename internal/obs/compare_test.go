package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pimdsm/internal/proto"
)

// TestSnapshotProfile: the serializable aggregate preserves the bucket sums
// of the live profiler and survives a JSON round trip byte-for-byte.
func TestSnapshotProfile(t *testing.T) {
	p := NewProfile()
	p.EnsureNodes(4)
	p.SetMeta("agg/fft")
	p.SetExec(1000)
	p.AddPNode(0, 700, 200, 50, 950) // idle = 50
	p.AddPNode(1, 600, 300, 100, 1000)
	p.Node(2, ResProc, HCDirLookup, 400)
	p.Node(2, ResMem, HCListOps, 150)
	p.Node(3, ResProc, HCInval, 50)
	// Mark the D-node resources covered, as machine.Run does, so the
	// snapshot's handlerNodes walk sees them.
	p.SetResource(2, ResProc, 400, 1, 0, 0)
	p.SetResource(2, ResMem, 150, 1, 0, 0)
	p.SetResource(3, ResProc, 50, 1, 0, 0)

	s := SnapshotProfile(p)
	if s.Label != "agg/fft" || s.ExecCycles != 1000 || s.PNodes != 2 {
		t.Fatalf("snapshot header: %+v", s)
	}
	if got := s.PCycles["busy"]; got != 1300 {
		t.Fatalf("busy cycles = %d, want 1300", got)
	}
	if got := s.PCycles["idle"]; got != 50 {
		t.Fatalf("idle cycles = %d, want 50", got)
	}
	if got := s.HandlerCycles["dir-lookup"]; got != 400 {
		t.Fatalf("dir-lookup cycles = %d, want 400", got)
	}
	if got := s.HandlerCycles["list-ops"]; got != 150 {
		t.Fatalf("list-ops cycles = %d, want 150", got)
	}

	// Deterministic JSON: two marshals of the same snapshot are identical,
	// and the round trip loses nothing.
	j1, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := json.Marshal(s)
	if !bytes.Equal(j1, j2) {
		t.Fatal("snapshot JSON is not deterministic")
	}
	var back ProfileSnapshot
	if err := json.Unmarshal(j1, &back); err != nil {
		t.Fatal(err)
	}
	if back.PCycles["mem-stall"] != 500 || back.HandlerCycles["inval"] != 50 {
		t.Fatalf("round trip lost buckets: %+v", back)
	}
}

// TestSnapshotProfileMerge: merging is additive, so a multi-config job folds
// into one artifact whose shares still mean something.
func TestSnapshotProfileMerge(t *testing.T) {
	a := &ProfileSnapshot{Label: "agg/fft", ExecCycles: 100, PNodes: 2,
		PCycles: map[string]uint64{"busy": 80}, HandlerCycles: map[string]uint64{"inval": 5}}
	b := &ProfileSnapshot{Label: "numa/fft", ExecCycles: 50, PNodes: 2,
		PCycles: map[string]uint64{"busy": 20, "idle": 10}, HandlerCycles: map[string]uint64{"inval": 7}}
	a.Merge(b)
	if a.ExecCycles != 150 || a.PNodes != 4 || a.PCycles["busy"] != 100 ||
		a.PCycles["idle"] != 10 || a.HandlerCycles["inval"] != 12 {
		t.Fatalf("merged snapshot: %+v", a)
	}
	if a.Label != "agg/fft+numa/fft" {
		t.Fatalf("merged label: %q", a.Label)
	}
}

// TestSnapshotSpans: the breakdown aggregates like the figure drivers'
// phaseRow — per-phase averages sum to the average latency.
func TestSnapshotSpans(t *testing.T) {
	s := NewSpans(0)
	s.Begin(100, 1, 0x1000, false)
	s.Mark(PhaseNetRequest, 150)
	s.Mark(PhaseDirOcc, 400)
	s.Mark(PhaseNetReply, 450)
	s.End(470, proto.Lat2Hop)
	s.Begin(500, 2, 0x2000, true)
	s.Mark(PhaseNetRequest, 530)
	s.Mark(PhaseDirOcc, 600)
	s.Mark(PhaseNetReply, 640)
	s.End(700, proto.Lat3Hop)

	b := SnapshotSpans(s)
	if b.Retired != 2 || b.Bad != 0 {
		t.Fatalf("breakdown header: %+v", b)
	}
	var sum float64
	for _, v := range b.Phases {
		sum += v
	}
	if diff := sum - b.AvgLat; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("phase averages sum to %v, avg latency is %v", sum, b.AvgLat)
	}
	if b.AvgLat != float64((470-100)+(700-500))/2 {
		t.Fatalf("avg latency = %v", b.AvgLat)
	}
}

// TestParseMetricsJSON consumes Registry.WriteJSON output directly.
func TestParseMetricsJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("reads").Add(42)
	reg.Gauge("pressure").Set(0.75)
	h := reg.Histogram("lat", Pow2Bounds(8))
	h.Observe(100)
	h.Observe(200)
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := ParseMetricsJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if m["reads"] != 42 || m["pressure"] != 0.75 {
		t.Fatalf("scalars: %v", m)
	}
	if m["lat.count"] != 2 || m["lat.sum"] != 300 {
		t.Fatalf("histogram flattening: %v", m)
	}
	if _, err := ParseMetricsJSON([]byte("not json")); err == nil {
		t.Fatal("corrupt metrics JSON parsed without error")
	}
}

// TestCompareNamesDominantPhase: diffing a run whose directory-occupancy
// phase blew up names dir-occ as the dominant regressed phase, in both the
// typed report and the text rendering.
func TestCompareNamesDominantPhase(t *testing.T) {
	a := RunDump{
		Label: "j-000001",
		Spans: &SpanBreakdown{Retired: 100, AvgLat: 300,
			Phases: map[string]float64{"issue": 50, "net-req": 50, "dir-occ": 100, "net-reply": 100}},
		Metrics: map[string]float64{"reads": 1000, "invals": 10},
	}
	b := RunDump{
		Label: "j-000002",
		Spans: &SpanBreakdown{Retired: 100, AvgLat: 520,
			Phases: map[string]float64{"issue": 50, "net-req": 60, "dir-occ": 310, "net-reply": 100}},
		Metrics: map[string]float64{"reads": 1000, "invals": 400},
	}
	rep := Compare(a, b, CompareOptions{})
	if rep.DominantPhase != "dir-occ" {
		t.Fatalf("dominant phase = %q, want dir-occ (report: %+v)", rep.DominantPhase, rep)
	}
	if !strings.Contains(rep.DominantResource, "directory occupancy") {
		t.Fatalf("dominant resource = %q", rep.DominantResource)
	}
	if rep.Phases[0].Name != "dir-occ" || !rep.Phases[0].Significant {
		t.Fatalf("phase rows not ordered by |delta|: %+v", rep.Phases)
	}
	if rep.AvgLat == nil || rep.AvgLat.Delta != 220 {
		t.Fatalf("avg-lat row: %+v", rep.AvgLat)
	}

	// Metrics: the invals explosion is significant, the flat reads row is not.
	var sawInvals, sawReadsSignificant bool
	for _, r := range rep.Metrics {
		if r.Name == "invals" && r.Significant {
			sawInvals = true
		}
		if r.Name == "reads" && r.Significant {
			sawReadsSignificant = true
		}
	}
	if !sawInvals || sawReadsSignificant {
		t.Fatalf("metric significance wrong: %+v", rep.Metrics)
	}

	var text bytes.Buffer
	rep.WriteText(&text)
	for _, want := range []string{"dominant regressed phase: dir-occ", "dir-occ", "perf diff: j-000001 -> j-000002"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, text.String())
		}
	}

	// The typed report marshals to JSON and comes back with the verdict.
	j, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back CompareReport
	if err := json.Unmarshal(j, &back); err != nil {
		t.Fatal(err)
	}
	if back.DominantPhase != "dir-occ" || back.Verdict == "" {
		t.Fatalf("JSON round trip: %+v", back)
	}
}

// TestCompareInsignificantDelta: a sub-threshold wiggle yields no dominant
// regressed phase.
func TestCompareInsignificantDelta(t *testing.T) {
	a := RunDump{Spans: &SpanBreakdown{Retired: 10, AvgLat: 100,
		Phases: map[string]float64{"issue": 50, "dir-occ": 50}}}
	b := RunDump{Spans: &SpanBreakdown{Retired: 10, AvgLat: 101,
		Phases: map[string]float64{"issue": 50.5, "dir-occ": 50.5}}}
	rep := Compare(a, b, CompareOptions{})
	if rep.DominantPhase != "" {
		t.Fatalf("1%% wiggle flagged as dominant phase %q", rep.DominantPhase)
	}
	if !strings.Contains(rep.Verdict, "no significant phase delta") {
		t.Fatalf("verdict: %q", rep.Verdict)
	}
}

// TestCompareProfileShares: profile diffs compare shares, not raw cycles, so
// runs of different lengths are comparable; a sync-spin share explosion is
// flagged.
func TestCompareProfileShares(t *testing.T) {
	a := RunDump{Profile: &ProfileSnapshot{ExecCycles: 1000, PNodes: 4,
		PCycles:       map[string]uint64{"busy": 800, "mem-stall": 150, "sync-spin": 50},
		HandlerCycles: map[string]uint64{"dir-lookup": 90, "inval": 10}}}
	b := RunDump{Profile: &ProfileSnapshot{ExecCycles: 2000, PNodes: 4,
		PCycles:       map[string]uint64{"busy": 1000, "mem-stall": 300, "sync-spin": 700},
		HandlerCycles: map[string]uint64{"dir-lookup": 100, "inval": 100}}}
	rep := Compare(a, b, CompareOptions{})
	var spin *DeltaRow
	for i := range rep.PShares {
		if rep.PShares[i].Name == "sync-spin" {
			spin = &rep.PShares[i]
		}
	}
	if spin == nil || !spin.Significant || spin.Delta <= 0 {
		t.Fatalf("P-share rows: %+v", rep.PShares)
	}
	var inval *DeltaRow
	for i := range rep.HandlerShares {
		if rep.HandlerShares[i].Name == "inval" {
			inval = &rep.HandlerShares[i]
		}
	}
	if inval == nil || !inval.Significant || inval.Delta <= 0 {
		t.Fatalf("handler share rows: %+v", rep.HandlerShares)
	}
}

// TestParseBenchDoc: both committed snapshot schemas parse; malformed ones
// are typed errors, not silent skips.
func TestParseBenchDoc(t *testing.T) {
	old := []byte(`{"date":"2026-08-05","go":"go1.24.0","cpus":1,"scale":0.1,"threads":8,` +
		`"runs":[{"arch":"agg","app":"fft","wall_ms":14.88,"exec_cycles":208811,"cycles_per_sec":14036406}]}`)
	doc, err := ParseBenchDoc(old)
	if err != nil {
		t.Fatalf("old-schema snapshot rejected: %v", err)
	}
	if doc.Runs[0].GoMaxProcs != 0 || doc.GoMaxProcs != 0 {
		t.Fatalf("optional fields should default to zero: %+v", doc)
	}
	for _, bad := range []string{
		`{`, // truncated
		`{"date":"","runs":[{"arch":"agg","app":"fft","wall_ms":1}]}`,        // no date
		`{"date":"2026-01-01","runs":[]}`,                                    // no runs
		`{"date":"2026-01-01","runs":[{"arch":"","app":"fft","wall_ms":1}]}`, // no arch
		`{"date":"2026-01-01","runs":[{"arch":"agg","app":"fft"}]}`,          // no wall time
	} {
		if _, err := ParseBenchDoc([]byte(bad)); err == nil {
			t.Errorf("malformed snapshot parsed without error: %s", bad)
		}
	}
}

// TestParseCommittedBenchSnapshots: the repo's committed BENCH_*.json files
// must stay parseable and produce a Timeline report — the body of the
// `make bench-diff` acceptance criterion.
func TestParseCommittedBenchSnapshots(t *testing.T) {
	paths, _ := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if len(paths) < 2 {
		t.Skipf("need >= 2 committed BENCH snapshots at the repo root, found %d", len(paths))
	}
	var docs []*BenchDoc
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := ParseBenchDoc(data)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		docs = append(docs, doc)
	}
	rep := Timeline(docs, 0)
	if len(rep.Series) == 0 {
		t.Fatal("timeline over committed snapshots has no series")
	}
	var text bytes.Buffer
	rep.WriteText(&text)
	if !strings.Contains(text.String(), "bench timeline") {
		t.Fatalf("timeline text:\n%s", text.String())
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("timeline report does not marshal: %v", err)
	}
}

// TestTimelineRegressionFlagging: a throughput drop beyond the threshold is
// flagged on the right series; a scale change is noted; improvements are not
// flagged.
func TestTimelineRegressionFlagging(t *testing.T) {
	docs := []*BenchDoc{
		{Date: "2026-08-01", Scale: 0.1, Runs: []BenchRun{
			{Arch: "agg", App: "fft", WallMs: 10, CyclesPerSec: 1e6},
			{Arch: "numa", App: "fft", WallMs: 10, CyclesPerSec: 1e6},
		}},
		{Date: "2026-08-08", Scale: 1.0, Runs: []BenchRun{
			{Arch: "agg", App: "fft", WallMs: 100, CyclesPerSec: 4e5},  // -60%
			{Arch: "numa", App: "fft", WallMs: 100, CyclesPerSec: 2e6}, // +100%
		}},
	}
	rep := Timeline(docs, 0.10)
	byArch := map[string]TimelineSeries{}
	for _, s := range rep.Series {
		byArch[s.Arch] = s
	}
	if !byArch["agg"].Regressed {
		t.Fatalf("agg/fft -60%% not flagged: %+v", byArch["agg"])
	}
	if byArch["numa"].Regressed {
		t.Fatalf("numa/fft improvement flagged as regression: %+v", byArch["numa"])
	}
	if !strings.Contains(byArch["agg"].Note, "scale changed") {
		t.Fatalf("scale-change note missing: %+v", byArch["agg"])
	}
	if len(rep.Regressions) != 1 || !strings.Contains(rep.Regressions[0], "agg/fft") {
		t.Fatalf("regressions: %v", rep.Regressions)
	}
	// Out-of-order input sorts by date before diffing the two newest.
	rep2 := Timeline([]*BenchDoc{docs[1], docs[0]}, 0.10)
	if len(rep2.Regressions) != 1 {
		t.Fatalf("date sorting broken: %v", rep2.Regressions)
	}
}
