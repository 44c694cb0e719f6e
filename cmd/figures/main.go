// Command figures regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md for the experiment index).
//
// Usage:
//
//	figures [-exp all|table1|table2|table3|fig6|fig7|fig8|fig9|fig10a|fig10b|decompose|bottleneck|timeline]
//	        [-scale f] [-threads n] [-apps fft,radix,...] [-quick]
//	        [-parallel n] [-progress] [-http addr]
//	        [-trace f.json] [-trace-buf n]
//	        [-metrics-out f.json] [-cpuprofile f] [-memprofile f]
//
// -quick shrinks problem sizes and the Figure 9 grid for a fast smoke pass.
// -parallel bounds the simulations in flight (default: one per CPU).
// -progress renders a live per-batch status line on stderr.
// -http serves a live dashboard (batch progress, expvar, pprof) on the given
// address (e.g. localhost:8080) while the figures regenerate.
// -trace records every run's protocol events into one shared ring and writes
// Chrome trace_event JSON; -metrics-out accumulates every run's counters.
// Either forces the runs serial (same results, just slower).
// -cpuprofile / -memprofile write pprof profiles covering the whole
// regeneration (see README.md, "Profiling").
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"pimdsm"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	exp := flag.String("exp", "all", "experiment to regenerate (all, table1-3, fig6-10b, decompose, bottleneck, timeline)")
	scale := flag.Float64("scale", 1.0, "workload scale factor")
	threads := flag.Int("threads", 32, "application threads")
	apps := flag.String("apps", "", "comma-separated app subset")
	quick := flag.Bool("quick", false, "small scale and coarse grids")
	parallel := flag.Int("parallel", 0, "max simulations in flight (0 = one per CPU)")
	progress := flag.Bool("progress", false, "render a live status line per batch on stderr")
	httpAddr := flag.String("http", "", "serve a live dashboard on this address while running")
	tracePath := flag.String("trace", "", "write Chrome trace_event JSON covering every run to file")
	traceBuf := flag.Int("trace-buf", 1<<20, "trace ring capacity in events (rounded to a power of two)")
	metricsOut := flag.String("metrics-out", "", "write accumulated metrics registry JSON to file")
	cpuprofile := flag.String("cpuprofile", "", "write CPU profile to file")
	memprofile := flag.String("memprofile", "", "write heap profile to file on exit")
	flag.Parse()

	stop, err := pimdsm.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer stop()

	opt := pimdsm.Options{Scale: *scale, Threads: *threads, Parallel: *parallel}
	if *apps != "" {
		opt.Apps = strings.Split(*apps, ",")
	}
	if *progress {
		opt.Progress = pimdsm.StatusLine(os.Stderr, "runs")
	}
	if *httpAddr != "" {
		dash := pimdsm.NewDashboard()
		addr, err := dash.ListenAndServe(*httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "http:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "dashboard: http://%s/\n", addr)
		web := dash.ProgressFunc("progress")
		if prev := opt.Progress; prev != nil {
			opt.Progress = func(done, total, i int) { prev(done, total, i); web(done, total, i) }
		} else {
			opt.Progress = web
		}
	}
	if *tracePath != "" {
		opt.Trace = pimdsm.NewTrace(*traceBuf)
	}
	if *metricsOut != "" {
		opt.Metrics = pimdsm.NewMetrics()
	}
	ps, ds := []int{2, 4, 8, 16, 32}, []int{2, 4, 8, 16, 32}
	combos := [][2]int{{2, 2}, {4, 4}, {8, 8}, {16, 16}, {28, 4}}
	if *quick {
		if *scale == 1.0 {
			opt.Scale = 0.25
		}
		ps, ds = []int{2, 8, 32}, []int{2, 8, 32}
		combos = [][2]int{{2, 2}, {8, 8}, {28, 4}}
	}

	code := 0
	run := func(name string, fn func() error) {
		want := code == 0 && (*exp == "all" || *exp == name)
		if !want {
			return
		}
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			code = 1
			return
		}
		fmt.Printf("[%s regenerated in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("table1", func() error { fmt.Print(pimdsm.Table1()); return nil })
	run("table2", func() error { fmt.Print(pimdsm.Table2()); return nil })
	run("table3", func() error {
		s, err := pimdsm.Table3(opt)
		if err != nil {
			return err
		}
		fmt.Print(s)
		return nil
	})

	var fig6 []pimdsm.AppBars
	need6 := code == 0 && (*exp == "all" || *exp == "fig6" || *exp == "fig7")
	if need6 {
		var err error
		fig6, err = pimdsm.Figure6(opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fig6:", err)
			return 1
		}
	}
	run("fig6", func() error { fmt.Print(pimdsm.FormatFigure6(fig6)); return nil })
	run("fig7", func() error { fmt.Print(pimdsm.FormatFigure7(pimdsm.Figure7(fig6))); return nil })
	run("fig8", func() error {
		bars, err := pimdsm.Figure8(opt)
		if err != nil {
			return err
		}
		fmt.Print(pimdsm.FormatFigure8(bars))
		return nil
	})
	run("fig9", func() error {
		rows, err := pimdsm.Figure9(opt, ps, ds)
		if err != nil {
			return err
		}
		fmt.Print(pimdsm.FormatFigure9(rows))
		return nil
	})
	run("fig10a", func() error {
		r, err := pimdsm.Figure10a(opt)
		if err != nil {
			return err
		}
		fmt.Print(pimdsm.FormatFigure10a(r))
		return nil
	})
	run("fig10b", func() error {
		pts, err := pimdsm.Figure10b(opt, combos)
		if err != nil {
			return err
		}
		fmt.Print(pimdsm.FormatFigure10b(pts))
		return nil
	})
	// Opt-in only (-exp decompose): re-runs the Figure 6 batch with span
	// recorders to print the per-phase miss-latency decomposition.
	if code == 0 && *exp == "decompose" {
		start := time.Now()
		rows, err := pimdsm.Decompose(opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "decompose:", err)
			return 1
		}
		fmt.Print(pimdsm.FormatDecompose(rows))
		fmt.Printf("[decompose regenerated in %v]\n\n", time.Since(start).Round(time.Millisecond))
	}

	// Opt-in only (-exp bottleneck): re-runs the Figure 6 batch with the
	// sim-time profiler to print per-node cycle accounting, mesh heatmaps and
	// the critical-path verdict per configuration.
	if code == 0 && *exp == "bottleneck" {
		start := time.Now()
		rows, err := pimdsm.Bottleneck(opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bottleneck:", err)
			return 1
		}
		fmt.Print(pimdsm.FormatBottleneck(rows))
		fmt.Printf("[bottleneck regenerated in %v]\n\n", time.Since(start).Round(time.Millisecond))
	}

	// Opt-in only (-exp timeline): parses every committed BENCH_*.json in the
	// working directory into the per-(arch,app) throughput trajectory, with
	// regressions beyond 10% flagged. Advisory: the report prints either way;
	// only a missing or malformed snapshot fails the run.
	if code == 0 && *exp == "timeline" {
		paths, _ := filepath.Glob("BENCH_*.json")
		sort.Strings(paths)
		if len(paths) == 0 {
			fmt.Fprintln(os.Stderr, "timeline: no BENCH_*.json snapshots in the working directory")
			return 1
		}
		var docs []*pimdsm.BenchDoc
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				fmt.Fprintln(os.Stderr, "timeline:", err)
				return 1
			}
			doc, err := pimdsm.ParseBenchDoc(data)
			if err != nil {
				fmt.Fprintf(os.Stderr, "timeline: %s: %v\n", p, err)
				return 1
			}
			docs = append(docs, doc)
		}
		rep := pimdsm.BenchTimeline(docs, 0.10)
		rep.WriteText(os.Stdout)
	}

	if code == 0 {
		if err := writeObservers(opt, *tracePath, *metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	return code
}

// writeObservers flushes the shared trace / metrics outputs, if requested.
// Artifacts are written atomically (temp file + rename): a failed batch
// never truncates the previous good trace or metrics dump.
func writeObservers(opt pimdsm.Options, tracePath, metricsOut string) error {
	if tracePath != "" {
		err := pimdsm.WriteFileAtomic(tracePath, func(w io.Writer) error { return pimdsm.WriteChromeTrace(w, opt.Trace) })
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if d := opt.Trace.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "trace: ring full, oldest %d of %d events dropped (raise -trace-buf)\n",
				d, opt.Trace.Total())
		}
	}
	if metricsOut != "" {
		if err := pimdsm.WriteFileAtomic(metricsOut, func(w io.Writer) error { return opt.Metrics.WriteJSON(w) }); err != nil {
			return fmt.Errorf("metrics-out: %w", err)
		}
	}
	return nil
}
