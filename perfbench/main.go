// Command perfbench is the repository benchmark. One process drives the
// simulator (pimdsm.Run) and the simulation service (pimdsm.NewServer,
// NewServiceAPI and the service client over loopback) through their public
// entry points, checks every output exactly, and prints one JSON result line
// last on stdout. README.md records why each workload exists and which
// layers it loads.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload sim-private --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate traced
// run (CPU profile plus spans) that reports the per-layer metrics and writes
// its spans and profile under .bench_build/perfbench/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"
)

// processStart anchors the run deadline.
var processStart = time.Now()

// runBudget is how long a run may keep starting work; whatever is left
// undone by then counts as failed, so a run always ends well inside the
// three minutes a run is allowed.
const runBudget = 150 * time.Second

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 7

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run. An op, or request, is one
// pimdsm.Run call in the sim-* workloads and one service request in svc-hit.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_ops_per_s", "ops/s"},
	{"req_per_s", "req/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
	{"peak_rss_mb", "MB"},
}

// simPackages are the simulator packages whose CPU self time the traced
// sim-* runs report per simulated op.
var simPackages = []string{"sim", "cache", "hashmap", "cpu", "workload", "core",
	"numa", "coma", "mesh", "proto", "machine", "runtime_gc", "runtime_other", "other"}

// svcPackages are the buckets whose CPU self time the traced svc-hit run
// reports per request; "bench" is this harness (package main).
var svcPackages = []string{"encoding_json", "net_http", "serve", "svclog", "syscall",
	"runtime_gc", "runtime_other", "bench", "other"}

// svcPhases split one svc-hit request, in order; they sum to its latency.
var svcPhases = []string{"submit", "queue_wait", "resolve", "notify", "result", "verify"}

// modelNames are the deterministic simulated counters, summed per pass.
var modelNames = []string{"model.exec_cycles",
	"model.reads.l1", "model.reads.l2", "model.reads.mem", "model.reads.2hop", "model.reads.3hop",
	"model.local_mem_ratio", "model.mesh.messages", "model.mesh.queued_cycles",
	"model.invalidations", "model.writebacks", "model.injections",
	"model.dproc.busy_cycles", "model.dproc.waited_cycles"}

// perLayer lists the metrics of a traced run. Every workload reports all of
// them; a layer the workload does not exercise reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, arch := range []string{"agg", "numa", "coma"} {
		defs = append(defs, metricDef{"run." + arch + ".ns_per_op", "ns/op"})
	}
	for _, pkg := range simPackages {
		defs = append(defs, metricDef{"self." + pkg + ".ns_per_op", "ns/op"})
	}
	defs = append(defs, metricDef{"alloc_bytes_per_op", "B/op"}, metricDef{"gc_cpu_fraction", "1"})
	for _, name := range modelNames {
		unit := "count"
		switch {
		case name == "model.local_mem_ratio":
			unit = "1"
		case strings.HasSuffix(name, "cycles"):
			unit = "cycles"
		}
		defs = append(defs, metricDef{name, unit})
	}
	defs = append(defs, metricDef{"traced.sim_ops_per_s", "ops/s"})
	for _, ph := range svcPhases {
		defs = append(defs, metricDef{"svc." + ph + "_us", "us"})
	}
	defs = append(defs,
		metricDef{"svc.result_bytes", "B/req"},
		metricDef{"svc.hit_ratio", "1"},
		metricDef{"svc.alloc_bytes_per_req", "B/req"},
		metricDef{"svc.gc_cpu_fraction", "1"},
		metricDef{"svc.retained_bytes_per_req", "B/req"})
	for _, pkg := range svcPackages {
		defs = append(defs, metricDef{"self." + pkg + ".us_per_req", "us/req"})
	}
	return append(defs,
		metricDef{"traced.req_per_s", "req/s"},
		metricDef{"traced.latency_p50_ms", "ms"})
}()

// params is one run's request.
type params struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	small    bool   // minimal sizes, for the benchmark's own tests
	root     string // repository root
	refPath  string // sim-* reference counters
	outDir   string // where a traced run writes its spans and CPU profile
}

// outcome accumulates one run: checked ops, failures, metrics, spans.
type outcome struct {
	attempted, failed int
	problems          []string // the first few failures and self-check breaks
	broken            bool     // a self-check failed
	e2e, layer        map[string]float64
	spans             []span
	profile           []byte // the traced run's CPU profile
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check counts one checked output; a non-nil err is a failed op.
func (o *outcome) check(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		o.note(err.Error())
	}
}

// selfCheck records a broken invariant of the run itself.
func (o *outcome) selfCheck(format string, args ...any) {
	o.broken = true
	o.note("self-check: " + fmt.Sprintf(format, args...))
}

func (o *outcome) note(msg string) {
	if len(o.problems) < 10 {
		o.problems = append(o.problems, msg)
	}
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(params, *outcome) error{
	"sim-private": func(p params, o *outcome) error { return runSim(p, simWorkloads["sim-private"], o) },
	"sim-shared":  func(p params, o *outcome) error { return runSim(p, simWorkloads["sim-shared"], o) },
	"svc-hit":     runSvc,
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	p := params{root: "."}
	var trace int
	fs.StringVar(&p.workload, "workload", "", "sim-private, sim-shared or svc-hit")
	fs.Int64Var(&p.seed, "seed", 1, "workload seed: config order (sim-*) or request sequence (svc-hit)")
	fs.IntVar(&p.seconds, "seconds", 30, "nominal measured seconds; fixes the amount of work")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	genRef := fs.Bool("gen-reference", false, "regenerate perfbench/reference.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	p.trace = trace == 1
	p.refPath = filepath.Join(p.root, "perfbench", "reference.json")
	p.outDir = filepath.Join(p.root, ".bench_build", "perfbench")
	if *genRef {
		if err := writeReference(p.refPath); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if (trace != 0 && trace != 1) || p.seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: need --trace 0|1 and --seconds >= 1")
		return 2
	}
	o, err := execute(p)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep, err := o.report(p.trace)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "workload=%s seed=%d seconds=%d trace=%v %s\n",
		p.workload, p.seed, p.seconds, p.trace, provenance(p.root))
	for _, msg := range o.problems {
		fmt.Fprintln(stdout, "problem:", msg)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// execute runs one workload and, for a traced run, writes its spans and
// CPU profile.
func execute(p params) (*outcome, error) {
	run, ok := workloads[p.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", p.workload)
	}
	o := newOutcome()
	if err := run(p, o); err != nil {
		return nil, err
	}
	o.e2e["peak_rss_mb"] = peakRSSMB()
	if p.trace {
		if err := o.writeTrace(p); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// result is the line the driver reads.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report builds the result line: every end-to-end metric, or with traced
// every per-layer metric.
func (o *outcome) report(traced bool) (result, error) {
	defs, vals := endToEnd, o.e2e
	if traced {
		defs, vals = perLayer, o.layer
	}
	rep := result{
		Correct:   o.failed == 0 && !o.broken,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	if o.attempted == 0 {
		return rep, fmt.Errorf("no output was checked")
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !traced {
			return rep, fmt.Errorf("metric %s was not measured", d.name)
		}
		rep.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	return rep, nil
}

// hostSample is a point-in-time reading of process resource counters.
type hostSample struct {
	at        time.Time
	cpu       time.Duration // user + system
	allocated uint64        // cumulative heap bytes allocated
	gcCPU     float64       // cumulative GC CPU seconds (runtime estimate)
	busyCPU   float64       // cumulative non-idle CPU seconds (runtime estimate)
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func sampleHost() hostSample {
	s := []metrics.Sample{{Name: runtimeMetrics[0]}, {Name: runtimeMetrics[1]},
		{Name: runtimeMetrics[2]}, {Name: runtimeMetrics[3]}}
	metrics.Read(s)
	h := hostSample{at: time.Now(), cpu: processCPU(), allocated: s[0].Value.Uint64(),
		gcCPU: s[1].Value.Float64(), busyCPU: s[2].Value.Float64() - s[3].Value.Float64()}
	return h
}

// gcFraction is the share of the process's busy CPU spent in GC between two
// samples.
func gcFraction(a, b hostSample) float64 {
	if busy := b.busyCPU - a.busyCPU; busy > 0 {
		return (b.gcCPU - a.gcCPU) / busy
	}
	return 0
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// percentile is the nearest-rank q-quantile of xs (0 for none).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(float64(len(s))*q+0.999999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// mean is the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(max(len(xs), 1))
}

// provenance names the host, toolchain and source the numbers came from.
// Outside a git checkout the commit reads "unknown"; the source digest
// still identifies the code.
func provenance(root string) string {
	commit, dirty := "unknown", false
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		commit += "-dirty"
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s commit=%s source=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, sourceDigest(root))
}
