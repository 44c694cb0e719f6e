package machine

import (
	"math"
	"testing"

	"pimdsm/internal/proto"
	"pimdsm/internal/workload"
)

func smallCfg(arch Arch, app string) Config {
	return Config{
		Arch:     arch,
		App:      workload.Spec{Name: app, Scale: 0.05},
		Threads:  4,
		Pressure: 0.75,
		DRatio:   1,
	}
}

func TestRunAllArchesSmoke(t *testing.T) {
	for _, arch := range []Arch{AGG, NUMA, COMA} {
		for _, app := range []string{"fft", "ocean"} {
			res, err := Run(smallCfg(arch, app))
			if err != nil {
				t.Fatalf("%s/%s: %v", arch, app, err)
			}
			if res.Breakdown.Exec == 0 {
				t.Fatalf("%s/%s: zero execution time", arch, app)
			}
			if res.Breakdown.Memory+res.Breakdown.Processor != res.Breakdown.Exec {
				t.Fatalf("%s/%s: breakdown doesn't add up: %+v", arch, app, res.Breakdown)
			}
			if res.Machine.Reads() == 0 {
				t.Fatalf("%s/%s: no reads recorded", arch, app)
			}
		}
	}
}

func TestRunAllAppsOnAGG(t *testing.T) {
	apps := append(workload.Names(), "dbase-opt")
	for _, app := range apps {
		res, err := Run(smallCfg(AGG, app))
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		if res.Breakdown.Exec == 0 {
			t.Fatalf("%s: zero exec time", app)
		}
	}
}

func TestSizeValidation(t *testing.T) {
	if _, err := Size(Config{Arch: AGG, Threads: 0, Pressure: 0.5}, 1<<20); err == nil {
		t.Error("zero threads accepted")
	}
	if _, err := Size(Config{Arch: AGG, Threads: 4, Pressure: 0}, 1<<20); err == nil {
		t.Error("zero pressure accepted")
	}
	if _, err := Size(Config{Arch: "vax", Threads: 4, Pressure: 0.5}, 1<<20); err == nil {
		t.Error("unknown arch accepted")
	}
}

func TestSizingInvariants(t *testing.T) {
	fp := uint64(8 << 20)
	// AGG: total D memory constant across D-node counts.
	base, err := Size(Config{Arch: AGG, Threads: 32, Pressure: 0.75, DRatio: 1}, fp)
	if err != nil {
		t.Fatal(err)
	}
	quarter, err := Size(Config{Arch: AGG, Threads: 32, Pressure: 0.75, DRatio: 4}, fp)
	if err != nil {
		t.Fatal(err)
	}
	if base.DNodes != 32 || quarter.DNodes != 8 {
		t.Fatalf("D-node counts %d/%d", base.DNodes, quarter.DNodes)
	}
	baseTotal, quarterTotal := base.DMemLines*32, quarter.DMemLines*8
	diff := baseTotal - quarterTotal
	if diff < 0 {
		diff = -diff
	}
	if diff > 32 { // integer rounding of per-node capacity only
		t.Fatalf("total D memory changed: %d vs %d", baseTotal, quarterTotal)
	}
	// NUMA per-node memory is twice AGG's per-P-node memory (Figure 5).
	n, err := Size(Config{Arch: NUMA, Threads: 32, Pressure: 0.75}, fp)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(n.PMemBytes) / float64(base.PMemBytes)
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("NUMA/AGG per-node memory ratio = %v, want ≈2", ratio)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, err := Run(smallCfg(AGG, "fft"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallCfg(AGG, "fft"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Breakdown != b.Breakdown {
		t.Fatalf("nondeterministic: %+v vs %+v", a.Breakdown, b.Breakdown)
	}
	if a.Machine.Reads() != b.Machine.Reads() {
		t.Fatal("nondeterministic read counts")
	}
}

func TestMeasurementExcludesWarmup(t *testing.T) {
	res, err := Run(smallCfg(AGG, "ocean"))
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up is all stores; the measured region must contain loads and its
	// exec time must be positive but below the total simulated time.
	if res.Machine.Reads() == 0 {
		t.Fatal("no measured reads")
	}
	if res.PhaseEnd[workload.PhaseMeasured] != 0 {
		t.Fatalf("PhaseMeasured end = %d, want 0 (measurement origin)", res.PhaseEnd[workload.PhaseMeasured])
	}
}

func TestCensusPopulatedForAGG(t *testing.T) {
	res, err := Run(smallCfg(AGG, "radix"))
	if err != nil {
		t.Fatal(err)
	}
	c := res.Census
	if c.SlotCap == 0 || c.DirtyInP+c.SharedInP+c.DNodeOnly == 0 {
		t.Fatalf("census empty: %+v", c)
	}
}

func TestDbaseOptUsesScans(t *testing.T) {
	res, err := Run(smallCfg(AGG, "dbase-opt"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Machine.Scans == 0 {
		t.Fatal("no scans recorded on dbase-opt")
	}
}

func TestLatencyClassesPopulated(t *testing.T) {
	res, err := Run(smallCfg(AGG, "fft"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Machine.ReadCount[proto.LatL1]+res.Machine.ReadCount[proto.LatL2] == 0 {
		t.Fatal("no SRAM cache hits")
	}
	if res.Machine.ReadCount[proto.Lat2Hop]+res.Machine.ReadCount[proto.Lat3Hop] == 0 {
		t.Fatal("no remote reads in FFT transpose")
	}
}

// TestRunRejectsBadSpecs: out-of-range handler scales, memory overrides,
// pressures and application scales are errors from Run, never a panic in
// the engine or in an allocation.
func TestRunRejectsBadSpecs(t *testing.T) {
	for _, tc := range []struct {
		name string
		mod  func(*Config)
	}{
		{"handler scale -1", func(c *Config) { c.HandlerScale = -1 }},
		{"handler scale 1e30", func(c *Config) { c.HandlerScale = 1e30 }},
		{"handler scale NaN", func(c *Config) { c.HandlerScale = math.NaN() }},
		{"handler scale past bound", func(c *Config) { c.HandlerScale = MaxHandlerScale + 1 }},
		{"pmem 1<<62", func(c *Config) { c.PMemBytesOverride = 1 << 62 }},
		{"dmem total 1<<62", func(c *Config) { c.DMemTotalOverride = 1 << 62 }},
		// The next two crashed the process inside Run before MaxDRAMBytes and
		// workload.MaxScale: a makeslice panic, and an out-of-memory abort no
		// recover can catch.
		{"1/1AGG swim pressure 1e-12", func(c *Config) {
			c.App, c.Threads, c.Pressure = workload.Spec{Name: "swim", Scale: 0.05}, 32, 1e-12
		}},
		{"NUMA radix scale 1e9", func(c *Config) {
			c.Arch, c.App, c.Threads = NUMA, workload.Spec{Name: "radix", Scale: 1e9}, 32
		}},
		{"COMA pressure 1e-300", func(c *Config) { c.Arch, c.Pressure = COMA, 1e-300 }},
		{"pressure NaN", func(c *Config) { c.Pressure = math.NaN() }},
		{"scale NaN", func(c *Config) { c.App.Scale = math.NaN() }},
		{"scale +Inf", func(c *Config) { c.App.Scale = math.Inf(1) }},
		{"scale past bound", func(c *Config) { c.App.Scale = workload.MaxScale * 2 }},
		// Per-node tag arrays, memories and streams are allocated once per
		// node: about 0.4 MB each for COMA fft at scale 0.05, so 1<<20
		// threads would ask for hundreds of GB and math.MaxInt cannot be
		// made at all.
		{"threads 1<<20", func(c *Config) { c.Threads = 1 << 20 }},
		{"threads MaxInt", func(c *Config) { c.Threads = math.MaxInt }},
		{"dnodes 1<<20", func(c *Config) { c.DNodes = 1 << 20 }},
		{"dnodes MaxInt", func(c *Config) { c.DNodes = math.MaxInt }},
	} {
		cfg := smallCfg(AGG, "fft")
		tc.mod(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The paper's scales and the Figure 9/10 baseline sizing stay valid.
	perNode, dTotal, err := BaselineSizing(smallCfg(AGG, "fft").App, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []float64{0, proto.HardwareScale, 1, MaxHandlerScale} {
		cfg := smallCfg(AGG, "fft")
		cfg.HandlerScale = scale
		cfg.PMemBytesOverride, cfg.DMemTotalOverride = perNode, dTotal
		if _, err := Run(cfg); err != nil {
			t.Errorf("handler scale %v with baseline sizing: %v", scale, err)
		}
	}
	// The DRAM bound itself: a footprint of MaxDRAMBytes fits at pressure 1
	// only.
	cfg := Config{Arch: AGG, Threads: 32, Pressure: 1, DRatio: 1}
	if _, err := Size(cfg, MaxDRAMBytes); err != nil {
		t.Errorf("footprint of MaxDRAMBytes at pressure 1: %v", err)
	}
	cfg.Pressure = 0.75
	if _, err := Size(cfg, MaxDRAMBytes); err == nil {
		t.Error("footprint of MaxDRAMBytes at pressure 0.75: accepted")
	}
	// The node bound itself: MaxThreads P-nodes and D-nodes fit, one more
	// of either does not.
	cfg = Config{Arch: AGG, Threads: MaxThreads, Pressure: 0.75, DNodes: MaxThreads}
	if _, err := Size(cfg, 1<<20); err != nil {
		t.Errorf("MaxThreads P-nodes and D-nodes: %v", err)
	}
	for _, mod := range []func(*Config){
		func(c *Config) { c.Threads++ },
		func(c *Config) { c.DNodes++ },
	} {
		bad := cfg
		mod(&bad)
		if _, err := Size(bad, 1<<20); err == nil {
			t.Errorf("%d threads, %d D-nodes: accepted", bad.Threads, bad.DNodes)
		}
	}
}

// TestPaperSizingsAccepted: every configuration the paper's experiments size
// (Figures 6-10, OptimalSplit, reconfiguration, the benchmark's) passes the
// bounds at scale 1, the largest any of them runs at.
func TestPaperSizingsAccepted(t *testing.T) {
	check := func(cfg Config) {
		t.Helper()
		app, err := workload.New(cfg.App)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if _, err := Size(cfg, app.Footprint()); err != nil {
			t.Errorf("%+v: %v", cfg, err)
		}
	}
	names := append(workload.Names(), "dbase-opt")
	for _, scale := range []float64{0.05, 1} {
		for _, name := range names {
			spec := workload.Spec{Name: name, Scale: scale}
			// Figures 6-8 and the benchmark: 32 threads, 25-75% pressure.
			for _, pr := range []float64{0.25, 0.5, 0.75} {
				for _, arch := range []Arch{NUMA, COMA} {
					check(Config{Arch: arch, App: spec, Threads: 32, Pressure: pr})
				}
				for _, r := range []int{1, 2, 4} {
					check(Config{Arch: AGG, App: spec, Threads: 32, Pressure: pr, DRatio: r})
				}
			}
			// Figures 9 and 10, OptimalSplit and reconfiguration: nodes
			// added at the frozen 2P&2D baseline sizing.
			perNode, dTotal, err := BaselineSizing(spec, 0.75)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{2, 4, 8, 16, 28, 32} {
				for _, d := range []int{2, 4, 8, 16, 32} {
					check(Config{Arch: AGG, App: spec, Threads: p, Pressure: 0.75, DNodes: d,
						PMemBytesOverride: perNode, DMemTotalOverride: dTotal})
				}
			}
		}
	}
}
