// Command aggsim runs a single DSM simulation and prints its measurements:
// the execution-time breakdown, the read-latency classification, protocol
// event counters, and (for AGG) the D-node memory census.
//
// Usage:
//
//	aggsim -arch agg|numa|coma -app fft -pressure 0.75 -dratio 1
//	       [-threads 32] [-scale 1.0] [-dnodes n]
//	       [-trace f.json] [-trace-bin f.bin] [-trace-buf n]
//	       [-metrics-out f.json] [-progress]
//	       [-spans] [-spans-out f.bin] [-audit] [-http addr]
//	       [-profile] [-folded f.folded]
//	       [-cpuprofile f] [-memprofile f]
//
// -trace records the run's protocol events and writes them as Chrome
// trace_event JSON (open in chrome://tracing or https://ui.perfetto.dev);
// -trace-bin writes the compact binary form instead (see `pimdsm trace`).
// Tracing never changes simulation results.
// -metrics-out writes the run's counters, gauges and latency histograms as
// JSON. -progress prints a phase-by-phase status line to stderr.
// -spans records per-transaction phase spans and prints the miss-latency
// breakdown; -spans-out writes the recorder in the PDS1 binary form (see
// `pimdsm spans dump`). -audit runs the per-transaction coherence auditor
// and exits nonzero if any protocol invariant is violated.
// -profile attaches the sim-time accounting profiler and prints the
// bottleneck report (per-node cycle accounting by handler class, mesh link
// heatmap, queue-wait percentiles); -folded writes the cycle attribution as
// collapsed stacks for speedscope / inferno / flamegraph.pl. Profiling never
// changes simulation results.
// -http serves a live dashboard (in-flight span table, metrics, profile,
// expvar, pprof) on the given address (e.g. localhost:8080); after the run
// finishes it keeps serving the final sections until interrupted (Ctrl-C).
// -cpuprofile / -memprofile write pprof profiles covering the run (see
// README.md, "Profiling").
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"

	"pimdsm"
	"pimdsm/internal/proto"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	arch := flag.String("arch", "agg", "architecture: agg, numa or coma")
	app := flag.String("app", "fft", "application (fft radix ocean barnes swim tomcatv dbase dbase-opt)")
	pressure := flag.Float64("pressure", 0.75, "memory pressure: footprint / total DRAM")
	threads := flag.Int("threads", 32, "application threads (= P-nodes)")
	dratio := flag.Int("dratio", 1, "AGG P:D ratio denominator (1, 2 or 4)")
	dnodes := flag.Int("dnodes", 0, "explicit AGG D-node count (overrides -dratio)")
	scale := flag.Float64("scale", 1.0, "workload scale factor")
	tracePath := flag.String("trace", "", "write Chrome trace_event JSON to file")
	traceBin := flag.String("trace-bin", "", "write compact binary trace to file")
	traceBuf := flag.Int("trace-buf", 1<<20, "trace ring capacity in events (rounded to a power of two)")
	metricsOut := flag.String("metrics-out", "", "write metrics registry JSON to file")
	progress := flag.Bool("progress", false, "print phase progress to stderr")
	spansOn := flag.Bool("spans", false, "record transaction spans and print the phase breakdown")
	spansOut := flag.String("spans-out", "", "write the span recorder in PDS1 binary form to file")
	audit := flag.Bool("audit", false, "audit coherence invariants per transaction; exit 1 on violations")
	profileOn := flag.Bool("profile", false, "attach the sim-time profiler and print the bottleneck report")
	folded := flag.String("folded", "", "write folded-stack cycle attribution (flamegraph input) to file")
	httpAddr := flag.String("http", "", "serve a live dashboard on this address while running")
	cpuprofile := flag.String("cpuprofile", "", "write CPU profile to file")
	memprofile := flag.String("memprofile", "", "write heap profile to file on exit")
	flag.Parse()

	stop, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer stop()

	cfg := pimdsm.Config{
		Arch:     pimdsm.Arch(*arch),
		App:      pimdsm.App(*app, *scale),
		Threads:  *threads,
		Pressure: *pressure,
		DRatio:   *dratio,
		DNodes:   *dnodes,
	}
	var tr *pimdsm.Trace
	if *tracePath != "" || *traceBin != "" {
		tr = pimdsm.NewTrace(*traceBuf)
		cfg.Trace = tr
	}
	var reg *pimdsm.Metrics
	if *metricsOut != "" || *httpAddr != "" {
		reg = pimdsm.NewMetrics()
		cfg.Metrics = reg
	}
	var spans *pimdsm.Spans
	if *spansOn || *spansOut != "" || *httpAddr != "" {
		spans = pimdsm.NewSpans(0)
		cfg.Spans = spans
	}
	var prof *pimdsm.Profile
	if *profileOn || *folded != "" || *httpAddr != "" {
		prof = pimdsm.NewProfile()
		cfg.Profile = prof
	}
	cfg.Audit = *audit
	if *progress {
		cfg.PhaseProgress = func(phase int, at pimdsm.Time) {
			fmt.Fprintf(os.Stderr, "phase %d done at cycle %d\n", phase, at)
		}
	}
	var dash *pimdsm.Dashboard
	if *httpAddr != "" {
		dash = pimdsm.NewDashboard()
		addr, err := dash.ListenAndServe(*httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "http:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "dashboard: http://%s/\n", addr)
		spans.SetMirror(dash, "spans", 0)
	}
	res, err := pimdsm.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := writeObservers(tr, reg, *tracePath, *traceBin, *metricsOut); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	fmt.Printf("%s / %s: %d P-nodes", res.Arch, res.App, res.PNodes)
	if res.DNodes > 0 {
		fmt.Printf(" + %d D-nodes", res.DNodes)
	}
	fmt.Printf(", %.1f MB DRAM (pressure %.0f%%)\n",
		float64(res.TotalDRAM)/(1<<20), res.EffPressure*100)
	bd := res.Breakdown
	fmt.Printf("execution time: %d cycles (Memory %d = %.0f%%, Processor %d)\n",
		bd.Exec, bd.Memory, 100*float64(bd.Memory)/float64(bd.Exec), bd.Processor)

	m := &res.Machine
	fmt.Printf("reads by level:\n")
	for c := proto.LatClass(0); c < proto.NumLatClasses; c++ {
		if m.ReadCount[c] == 0 {
			continue
		}
		fmt.Printf("  %-7s %9d reads, avg %5d cycles\n",
			c, m.ReadCount[c], uint64(m.ReadLatSum[c])/m.ReadCount[c])
	}
	fmt.Printf("events: %d invalidations, %d write-backs, %d upgrades\n",
		m.Invalidations, m.WriteBacks, m.Upgrades)
	if m.Pageouts+m.DiskFaults > 0 {
		fmt.Printf("paging: %d pageouts, %d recalls, %d disk faults\n",
			m.Pageouts, m.Recalls, m.DiskFaults)
	}
	if m.Injections > 0 {
		fmt.Printf("COMA: %d injections (avg cascade %.1f hops), %d overflows\n",
			m.Injections, float64(m.InjectionHops)/float64(m.Injections), m.Overflows)
	}
	if m.Scans > 0 {
		fmt.Printf("computation in memory: %d scans over %d lines\n", m.Scans, m.ScanLines)
	}
	if res.Arch == pimdsm.AGG {
		c := res.Census
		fmt.Printf("D-node census: %d dirty-in-P, %d shared-in-P, %d D-node-only, %d free of %d slots\n",
			c.DirtyInP, c.SharedInP, c.DNodeOnly, c.FreeSlots, c.SlotCap)
	}
	net := res.Mesh
	fmt.Printf("mesh: %d messages, %.1f MB, avg queueing %d cycles\n",
		net.Messages, float64(net.Bytes)/(1<<20), uint64(net.Queued)/max64(net.Messages, 1))
	if *spansOn {
		fmt.Printf("\nspan breakdown (%d transactions, %d bad):\n", spans.Retired(), spans.Bad())
		spans.WriteBreakdown(os.Stdout)
		for _, d := range spans.BadSamples() {
			fmt.Printf("  BAD: %s\n", d)
		}
	}
	if *profileOn {
		fmt.Printf("\nbottleneck report:\n")
		prof.WriteReport(os.Stdout)
		if spans != nil {
			fmt.Printf("%s\n", pimdsm.CriticalPath(spans))
		}
	}
	if *folded != "" {
		if err := pimdsm.WriteFileAtomic(*folded, func(w io.Writer) error { return pimdsm.WriteFoldedProfile(w, prof) }); err != nil {
			fmt.Fprintln(os.Stderr, "folded:", err)
			return 1
		}
	}
	if *spansOut != "" {
		if err := pimdsm.WriteFileAtomic(*spansOut, func(w io.Writer) error { return pimdsm.WriteBinarySpans(w, spans) }); err != nil {
			fmt.Fprintln(os.Stderr, "spans-out:", err)
			return 1
		}
	}
	if *audit {
		if res.AuditViolations > 0 {
			fmt.Fprintf(os.Stderr, "audit: %d coherence-invariant violations\n", res.AuditViolations)
			for _, d := range res.AuditSamples {
				fmt.Fprintf(os.Stderr, "  %s\n", d)
			}
			return 1
		}
		fmt.Printf("audit: no coherence-invariant violations\n")
	}
	if dash != nil {
		// A single run is often over in milliseconds; keep the dashboard up
		// so the final spans/metrics are inspectable until interrupted.
		var buf bytes.Buffer
		if err := reg.WriteJSON(&buf); err == nil {
			dash.Publish("metrics", buf.String())
		}
		var sb strings.Builder
		spans.WriteBreakdown(&sb)
		dash.Publish("spans", sb.String())
		var pb strings.Builder
		prof.WriteReport(&pb)
		fmt.Fprintf(&pb, "%s\n", pimdsm.CriticalPath(spans))
		dash.Publish("profile", pb.String())
		fmt.Fprintln(os.Stderr, "run complete; dashboard still serving (Ctrl-C to exit)")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
	}
	return 0
}

// writeObservers flushes the trace and metrics outputs that were requested.
// Every artifact is written atomically (temp file + rename), so a failed or
// interrupted writer never truncates a previous good artifact.
func writeObservers(tr *pimdsm.Trace, reg *pimdsm.Metrics, tracePath, traceBin, metricsOut string) error {
	if tracePath != "" {
		if err := pimdsm.WriteFileAtomic(tracePath, func(w io.Writer) error { return pimdsm.WriteChromeTrace(w, tr) }); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if d := tr.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "trace: ring full, oldest %d of %d events dropped (raise -trace-buf)\n", d, tr.Total())
		}
	}
	if traceBin != "" {
		if err := pimdsm.WriteFileAtomic(traceBin, func(w io.Writer) error { return pimdsm.WriteBinaryTrace(w, tr) }); err != nil {
			return fmt.Errorf("trace-bin: %w", err)
		}
	}
	if metricsOut != "" {
		if err := pimdsm.WriteFileAtomic(metricsOut, func(w io.Writer) error { return reg.WriteJSON(w) }); err != nil {
			return fmt.Errorf("metrics-out: %w", err)
		}
	}
	return nil
}

// startProfiles starts the requested pprof profiles and returns a function
// that flushes them; it must run before the process exits (so main returns an
// exit code instead of calling os.Exit directly).
func startProfiles(cpu, mem string) (stop func(), err error) {
	var cpuFile *os.File
	if cpu != "" {
		cpuFile, err = os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the live set before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}
	}, nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
