package pimdsm

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"pimdsm/internal/machine"
	"pimdsm/internal/proto"
)

// Options scopes a figure regeneration.
type Options struct {
	// Scale multiplies every application's problem size (default 1.0, the
	// calibrated size recorded in EXPERIMENTS.md).
	Scale float64
	// Threads is the number of application threads (default 32, as in the
	// paper).
	Threads int
	// Apps restricts the applications (default: all seven).
	Apps []string
	// Parallel bounds the number of simulations run concurrently (default:
	// one per CPU). Parallelism never changes results: each run is
	// deterministic given its Config.
	Parallel int

	// Trace, when non-nil, receives every run's protocol events. Metrics,
	// when non-nil, accumulates every run's counters. Both observers are
	// single-writer, so setting either forces the runs serial (results are
	// unchanged — parallelism never affects them — only slower).
	Trace   *Trace
	Metrics *Metrics
	// Progress, when non-nil, is called after each run of a batch completes
	// (see Sweep.Progress).
	Progress func(done, total, i int)
}

// sweep returns the worker pool implied by the options.
func (o Options) sweep() Sweep {
	workers := o.Parallel
	if o.Trace != nil || o.Metrics != nil {
		workers = 1
	}
	return Sweep{Workers: workers, Progress: o.Progress}
}

// runMany stamps the options' observers into each config and runs the batch.
func (o Options) runMany(cfgs []Config) ([]*Result, error) {
	if o.Trace != nil || o.Metrics != nil {
		for i := range cfgs {
			cfgs[i].Trace = o.Trace
			cfgs[i].Metrics = o.Metrics
		}
	}
	return o.sweep().RunMany(cfgs)
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 1.0
	}
	if o.Threads == 0 {
		o.Threads = 32
	}
	if len(o.Apps) == 0 {
		o.Apps = Apps()
	}
	return o
}

// ReducedRatio returns the paper's per-application reduced D-node ratio
// (§4.1): FFT, Radix and Ocean put relatively more demands on the D-nodes
// and run with 1/2; the others run with 1/4.
func ReducedRatio(app string) int {
	switch app {
	case "fft", "radix", "ocean":
		return 2
	}
	return 4
}

// --- Figure 6: overall performance ---

// Bar is one stacked execution-time bar, normalized to the application's
// NUMA run (Exec = Memory + Processor).
type Bar struct {
	Label     string
	Exec      float64
	Memory    float64
	Processor float64
	Result    *Result
}

// AppBars is one application's group of bars.
type AppBars struct {
	App  string
	Bars []Bar
}

// figure6Labels are the configurations of Figure 6, in order. %d is the
// application's reduced ratio.
func figure6Configs(app string, opt Options) []struct {
	label string
	cfg   Config
} {
	r := ReducedRatio(app)
	spec := AppSpec{Name: app, Scale: opt.Scale}
	mk := func(arch Arch, pressure float64, dratio int) Config {
		return Config{Arch: arch, App: spec, Threads: opt.Threads, Pressure: pressure, DRatio: dratio}
	}
	return []struct {
		label string
		cfg   Config
	}{
		{"NUMA", mk(NUMA, 0.75, 0)},
		{"COMA25", mk(COMA, 0.25, 0)},
		{"COMA75", mk(COMA, 0.75, 0)},
		{"1/1AGG25", mk(AGG, 0.25, 1)},
		{"1/1AGG75", mk(AGG, 0.75, 1)},
		{fmt.Sprintf("1/%dAGG25", r), mk(AGG, 0.25, r)},
		{fmt.Sprintf("1/%dAGG75", r), mk(AGG, 0.75, r)},
	}
}

// Figure6 regenerates the paper's Figure 6: execution time of every
// application on NUMA, COMA and the AGG configurations at 25% and 75%
// memory pressure, normalized to NUMA and split into Memory and Processor
// time.
func Figure6(opt Options) ([]AppBars, error) {
	opt = opt.withDefaults()
	var out []AppBars
	for _, app := range opt.Apps {
		cs := figure6Configs(app, opt)
		cfgs := make([]Config, len(cs))
		for i := range cs {
			cfgs[i] = cs[i].cfg
		}
		results, err := opt.runMany(cfgs)
		if err != nil {
			return nil, err
		}
		numa := float64(results[0].Breakdown.Exec)
		bars := make([]Bar, len(cs))
		for i, res := range results {
			bars[i] = Bar{
				Label:     cs[i].label,
				Exec:      float64(res.Breakdown.Exec) / numa,
				Memory:    float64(res.Breakdown.Memory) / numa,
				Processor: float64(res.Breakdown.Processor) / numa,
				Result:    res,
			}
		}
		out = append(out, AppBars{App: app, Bars: bars})
	}
	return out, nil
}

// FormatFigure6 renders Figure 6 as a text table.
func FormatFigure6(rows []AppBars) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: execution time normalized to NUMA (Memory+Processor)\n")
	if len(rows) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%-8s", "app")
	for _, bar := range rows[0].Bars {
		fmt.Fprintf(&b, " %12s", bar.Label)
	}
	fmt.Fprintf(&b, "\n")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-8s", row.App)
		for _, bar := range row.Bars {
			fmt.Fprintf(&b, " %5.2f(M%.2f)", bar.Exec, bar.Memory)
		}
		fmt.Fprintf(&b, "\n")
	}
	// Paper's headline: average reduction vs NUMA for COMA and 1/1AGG.
	avg := func(idx int) float64 {
		g := 1.0
		for _, row := range rows {
			g *= row.Bars[idx].Exec
		}
		return math.Pow(g, 1/float64(len(rows)))
	}
	fmt.Fprintf(&b, "geomean: ")
	for i, bar := range rows[0].Bars {
		fmt.Fprintf(&b, "%s=%.2f ", bar.Label, avg(i))
	}
	fmt.Fprintf(&b, "\n")
	return b.String()
}

// --- Figure 7: read latency breakdown ---

// Fig7Bar is one bar of Figure 7: the summed latency of every read in the
// program, split by satisfaction level and normalized to the application's
// NUMA total.
type Fig7Bar struct {
	Label   string
	ByClass [proto.NumLatClasses]float64
	Total   float64
}

// Fig7Row groups one application's Figure 7 bars.
type Fig7Row struct {
	App  string
	Bars []Fig7Bar
}

// Figure7 derives the Figure 7 data from Figure 6's runs (the paper builds
// both figures from the same experiments).
func Figure7(rows []AppBars) []Fig7Row {
	var out []Fig7Row
	for _, row := range rows {
		numa := float64(row.Bars[0].Result.Machine.TotalReadLat())
		r7 := Fig7Row{App: row.App}
		for _, bar := range row.Bars {
			fb := Fig7Bar{Label: bar.Label}
			for c := proto.LatClass(0); c < proto.NumLatClasses; c++ {
				fb.ByClass[c] = float64(bar.Result.Machine.ReadLatSum[c]) / numa
				fb.Total += fb.ByClass[c]
			}
			r7.Bars = append(r7.Bars, fb)
		}
		out = append(out, r7)
	}
	return out
}

// FormatFigure7 renders Figure 7 as a text table.
func FormatFigure7(rows []Fig7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: aggregate read latency by level, normalized to NUMA total\n")
	fmt.Fprintf(&b, "%-8s %-10s %8s %8s %8s %8s %8s %8s\n", "app", "config", "FLC", "SLC", "Memory", "2Hop", "3Hop", "total")
	for _, row := range rows {
		for _, bar := range row.Bars {
			fmt.Fprintf(&b, "%-8s %-10s", row.App, bar.Label)
			for c := proto.LatClass(0); c < proto.NumLatClasses; c++ {
				fmt.Fprintf(&b, " %8.3f", bar.ByClass[c])
			}
			fmt.Fprintf(&b, " %8.3f\n", bar.Total)
		}
	}
	return b.String()
}

// --- Figure 8: D-node memory utilization ---

// Fig8Bar classifies the machine's memory lines at the end of a run, with
// the total D-node storage normalized to 100 (the paper's dotted line).
type Fig8Bar struct {
	App       string
	Pressure  int // percent
	DirtyInP  float64
	SharedInP float64
	DNodeOnly float64
	Unused    float64
	Total     float64 // DirtyInP + SharedInP + DNodeOnly: lines in the system
}

// Figure8 regenerates Figure 8: the line-state census on the reduced-ratio
// AGG machine at 75%, 50% and 25% memory pressure. (The paper notes the
// D:P ratio barely matters for this experiment; it uses 1/4AGG.)
func Figure8(opt Options) ([]Fig8Bar, error) {
	opt = opt.withDefaults()
	var cfgs []Config
	var meta []Fig8Bar
	for _, app := range opt.Apps {
		for _, pr := range []float64{0.75, 0.50, 0.25} {
			cfgs = append(cfgs, Config{
				Arch: AGG, App: AppSpec{Name: app, Scale: opt.Scale},
				Threads: opt.Threads, Pressure: pr, DRatio: 4,
			})
			meta = append(meta, Fig8Bar{App: app, Pressure: int(pr*100 + 0.5)})
		}
	}
	results, err := opt.runMany(cfgs)
	if err != nil {
		return nil, err
	}
	out := make([]Fig8Bar, len(results))
	for i, res := range results {
		bar := meta[i]
		c := res.Census
		norm := 100 / float64(c.SlotCap)
		bar.DirtyInP = float64(c.DirtyInP) * norm
		bar.SharedInP = float64(c.SharedInP) * norm
		bar.DNodeOnly = float64(c.DNodeOnly) * norm
		bar.Unused = float64(c.FreeSlots) * norm
		bar.Total = bar.DirtyInP + bar.SharedInP + bar.DNodeOnly
		out[i] = bar
	}
	return out, nil
}

// FormatFigure8 renders Figure 8 as a text table.
func FormatFigure8(bars []Fig8Bar) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: line states, normalized to total D-node storage = 100\n")
	fmt.Fprintf(&b, "%-8s %4s %10s %10s %10s %8s %7s\n", "app", "pres", "DirtyInP", "SharedInP", "DNodeOnly", "Unused", "lines")
	for _, bar := range bars {
		fmt.Fprintf(&b, "%-8s %3d%% %10.1f %10.1f %10.1f %8.1f %7.1f\n",
			bar.App, bar.Pressure, bar.DirtyInP, bar.SharedInP, bar.DNodeOnly, bar.Unused, bar.Total)
	}
	return b.String()
}

// --- Figure 9: static reconfigurability ---

// Fig9Cell is one (P, D) point of an application's Figure 9 surface,
// normalized to the 2P&2D configuration.
type Fig9Cell struct {
	P, D      int
	Exec      float64
	Memory    float64
	Processor float64
}

// Fig9App is one application's surface.
type Fig9App struct {
	App   string
	Cells []Fig9Cell
}

// Figure9 regenerates Figure 9: execution time under different numbers of
// P- and D-nodes, with the problem size and the total D-node memory fixed at
// the AGG75 2P&2D baseline and per-node memory constant (nodes are added,
// not resized). ps and ds default to the paper's powers of two up to 32.
func Figure9(opt Options, ps, ds []int) ([]Fig9App, error) {
	opt = opt.withDefaults()
	if len(ps) == 0 {
		ps = []int{2, 4, 8, 16, 32}
	}
	if len(ds) == 0 {
		ds = []int{2, 4, 8, 16, 32}
	}
	var out []Fig9App
	for _, app := range opt.Apps {
		spec := AppSpec{Name: app, Scale: opt.Scale}
		// AGG75 base at 2P&2D: per-node memory and total D-memory frozen.
		perNode, dTotal, err := machine.BaselineSizing(spec, 0.75)
		if err != nil {
			return nil, err
		}

		var cfgs []Config
		var cells []Fig9Cell
		for _, p := range ps {
			for _, d := range ds {
				cfgs = append(cfgs, Config{
					Arch: AGG, App: spec, Threads: p, Pressure: 0.75,
					DNodes:            d,
					PMemBytesOverride: perNode,
					DMemTotalOverride: dTotal,
				})
				cells = append(cells, Fig9Cell{P: p, D: d})
			}
		}
		results, err := opt.runMany(cfgs)
		if err != nil {
			return nil, err
		}
		var base float64
		for i, c := range cells {
			if c.P == ps[0] && c.D == ds[0] {
				base = float64(results[i].Breakdown.Exec)
			}
		}
		for i := range cells {
			bd := results[i].Breakdown
			cells[i].Exec = float64(bd.Exec) / base
			cells[i].Memory = float64(bd.Memory) / base
			cells[i].Processor = float64(bd.Processor) / base
		}
		out = append(out, Fig9App{App: app, Cells: cells})
	}
	return out, nil
}

// FormatFigure9 renders each application's surface as a P×D grid.
func FormatFigure9(apps []Fig9App) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: execution time vs #P and #D nodes, normalized to the first cell\n")
	for _, app := range apps {
		ps := sortedUnique(app.Cells, func(c Fig9Cell) int { return c.P })
		ds := sortedUnique(app.Cells, func(c Fig9Cell) int { return c.D })
		fmt.Fprintf(&b, "%s:\n        ", app.App)
		for _, d := range ds {
			fmt.Fprintf(&b, " D=%-5d", d)
		}
		fmt.Fprintf(&b, "\n")
		for _, p := range ps {
			fmt.Fprintf(&b, "  P=%-4d", p)
			for _, d := range ds {
				for _, c := range app.Cells {
					if c.P == p && c.D == d {
						fmt.Fprintf(&b, " %7.3f", c.Exec)
					}
				}
			}
			fmt.Fprintf(&b, "\n")
		}
	}
	return b.String()
}

func sortedUnique(cells []Fig9Cell, key func(Fig9Cell) int) []int {
	seen := map[int]bool{}
	var out []int
	for _, c := range cells {
		if k := key(c); !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Ints(out)
	return out
}

// --- Figure 10(a): dynamic reconfiguration ---

// Figure10a runs the paper's dynamic reconfiguration experiment: Dbase with
// a 16&16 hash phase reconfigured to a 28&4 join phase.
func Figure10a(opt Options) (*ReconfigResult, error) {
	opt = opt.withDefaults()
	return RunReconfig(AppSpec{Name: "dbase", Scale: opt.Scale}, 0.75, 16, 16, 28, 4)
}

// FormatFigure10a renders the three Figure 10(a) bars.
func FormatFigure10a(r *ReconfigResult) string {
	var b strings.Builder
	norm := float64(r.StaticA())
	fmt.Fprintf(&b, "Figure 10(a): Dbase static vs dynamic reconfiguration (normalized to 16&16)\n")
	fmt.Fprintf(&b, "  16&16 static : %.3f (hash %.3f + join %.3f)\n",
		1.0, float64(r.Phase1A)/norm, float64(r.Phase2A)/norm)
	fmt.Fprintf(&b, "  28&4  static : %.3f (hash %.3f + join %.3f)\n",
		float64(r.StaticB())/norm, float64(r.Phase1B)/norm, float64(r.Phase2B)/norm)
	fmt.Fprintf(&b, "  dynamic      : %.3f (hash %.3f + reconf %.3f + join %.3f)\n",
		float64(r.Dynamic)/norm, float64(r.Phase1A)/norm, float64(r.Reconf)/norm, float64(r.Phase2B)/norm)
	best := r.StaticA()
	if r.StaticB() < best {
		best = r.StaticB()
	}
	fmt.Fprintf(&b, "  dynamic vs best static: %+.1f%% (lines moved %d, pages %d)\n",
		100*(float64(r.Dynamic)/float64(best)-1), r.LinesMoved, r.PagesMoved)
	return b.String()
}

// --- Figure 10(b): computation in memory ---

// Fig10bPoint compares Dbase Plain (P-nodes traverse the tables) and Opt
// (D-nodes traverse, §4.3) at one P&D configuration; values normalized to
// Plain at the first configuration.
type Fig10bPoint struct {
	P, D       int
	Plain, Opt float64
}

// Figure10b regenerates Figure 10(b) over the paper's P&D combinations.
func Figure10b(opt Options, combos [][2]int) ([]Fig10bPoint, error) {
	opt = opt.withDefaults()
	if len(combos) == 0 {
		combos = [][2]int{{2, 2}, {4, 4}, {8, 8}, {16, 16}, {28, 4}}
	}
	perNode, dTotal, err := machine.BaselineSizing(AppSpec{Name: "dbase", Scale: opt.Scale}, 0.75)
	if err != nil {
		return nil, err
	}

	var cfgs []Config
	for _, pd := range combos {
		for _, name := range []string{"dbase", "dbase-opt"} {
			cfgs = append(cfgs, Config{
				Arch: AGG, App: AppSpec{Name: name, Scale: opt.Scale},
				Threads: pd[0], Pressure: 0.75, DNodes: pd[1],
				PMemBytesOverride: perNode, DMemTotalOverride: dTotal,
			})
		}
	}
	results, err := opt.runMany(cfgs)
	if err != nil {
		return nil, err
	}
	base := float64(results[0].Breakdown.Exec)
	out := make([]Fig10bPoint, len(combos))
	for i, pd := range combos {
		out[i] = Fig10bPoint{
			P:     pd[0],
			D:     pd[1],
			Plain: float64(results[2*i].Breakdown.Exec) / base,
			Opt:   float64(results[2*i+1].Breakdown.Exec) / base,
		}
	}
	return out, nil
}

// FormatFigure10b renders Figure 10(b).
func FormatFigure10b(points []Fig10bPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10(b): Dbase Plain vs Opt (computation in memory), normalized to Plain at first config\n")
	fmt.Fprintf(&b, "%8s %8s %8s %10s\n", "P&D", "Plain", "Opt", "reduction")
	for _, pt := range points {
		red := 100 * (1 - pt.Opt/pt.Plain)
		fmt.Fprintf(&b, "%4d&%-3d %8.3f %8.3f %9.1f%%\n", pt.P, pt.D, pt.Plain, pt.Opt, red)
	}
	return b.String()
}
