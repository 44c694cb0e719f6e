package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"pimdsm"
)

// apiKeyFlag registers the shared -key flag: the tenant API key sent with
// every request to a daemon running with -tenants-file. It defaults to
// $PIMDSM_API_KEY so scripts set the key once in the environment.
func apiKeyFlag(fs *flag.FlagSet) *string {
	return fs.String("key", os.Getenv("PIMDSM_API_KEY"), "tenant API key (default $PIMDSM_API_KEY)")
}

// newClient builds a service client carrying the tenant API key.
func newClient(addr, key string) *pimdsm.ServiceClient {
	c := pimdsm.NewServiceClient(addr)
	c.APIKey = key
	return c
}

// submitCmd posts a job to an aggsimd daemon: either the standard Figure-6
// batch for an application (-figure6) or a single configuration described
// by the same flags aggsim takes.
func submitCmd(args []string) int {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:8977", "aggsimd address")
	key := apiKeyFlag(fs)
	name := fs.String("name", "", "job name (shown in listings)")
	priority := fs.Int("priority", 0, "scheduling priority (higher runs first)")
	metrics := fs.Bool("metrics", false, "attach a per-job metrics artifact")
	spans := fs.Bool("spans", false, "attach a per-job span artifact (runs serial)")
	telemetry := fs.Bool("telemetry", false, "flight recorder: record profile/folded/decompose artifacts (implies -metrics -spans)")
	wait := fs.Bool("wait", false, "poll until the job finishes and print the final status")
	busyRetries := fs.Int("busy-retries", 10, "with -wait: resubmissions absorbed on 429 pushback (honoring Retry-After)")
	progress := fs.Bool("progress", false, "stream job progress to stderr (implies -wait)")
	fig6 := fs.Bool("figure6", false, "submit the paper's Figure 6 batch for -app")
	arch := fs.String("arch", "agg", "architecture: agg, numa or coma")
	app := fs.String("app", "fft", "application")
	scale := fs.Float64("scale", 1.0, "workload scale factor")
	threads := fs.Int("threads", 32, "application threads")
	pressure := fs.Float64("pressure", 0.75, "memory pressure")
	dratio := fs.Int("dratio", 1, "AGG P:D ratio denominator")
	dnodes := fs.Int("dnodes", 0, "explicit AGG D-node count (overrides -dratio)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	spec := pimdsm.JobSpec{
		Name:      *name,
		Priority:  *priority,
		Metrics:   *metrics,
		Spans:     *spans,
		Telemetry: *telemetry,
	}
	if *fig6 {
		spec.Configs = pimdsm.Figure6Specs(*app, *threads, *scale)
		if spec.Name == "" {
			spec.Name = "figure6-" + *app
		}
	} else {
		spec.Configs = []pimdsm.ConfigSpec{pimdsm.SpecOfConfig(pimdsm.Config{
			Arch:     pimdsm.Arch(*arch),
			App:      pimdsm.App(*app, *scale),
			Threads:  *threads,
			Pressure: *pressure,
			DRatio:   *dratio,
			DNodes:   *dnodes,
		})}
	}

	c := newClient(*addr, *key)
	var st pimdsm.JobStatus
	var err error
	if *wait || *progress {
		// A waiting submit honors the daemon's admission pushback: sleep
		// the Retry-After the 429 carried and resubmit, rather than making
		// the caller script the backoff loop.
		var retries int
		st, retries, err = c.SubmitRetry(context.Background(), spec, *busyRetries, 0)
		if retries > 0 && err == nil {
			fmt.Fprintf(os.Stderr, "pimdsm submit: admitted after %d busy retries\n", retries)
		}
	} else {
		st, err = c.Submit(spec)
	}
	if err != nil {
		if be, ok := err.(*pimdsm.BusyError); ok {
			fmt.Fprintf(os.Stderr, "pimdsm submit: server busy, retry in %s\n", be.RetryAfter)
			return 1
		}
		fmt.Fprintln(os.Stderr, "pimdsm submit:", err)
		return 1
	}
	fmt.Printf("%s %s (%d configs)\n", st.ID, st.State, st.Total)
	if !*wait && !*progress {
		return 0
	}
	if *progress {
		if err := c.StreamProgress(context.Background(), st.ID, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "pimdsm submit:", err)
			return 1
		}
	}
	final, err := c.Wait(context.Background(), st.ID, 200*time.Millisecond)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pimdsm submit:", err)
		return 1
	}
	printStatus(final)
	if final.State != pimdsm.JobDone {
		return 1
	}
	return 0
}

func printStatus(st pimdsm.JobStatus) {
	fmt.Printf("%s %-8s %d/%d done, %d cached, %d simulated, %d joined",
		st.ID, st.State, st.Done, st.Total, st.CacheHits, st.Simulated, st.Joins)
	if st.Name != "" {
		fmt.Printf("  (%s)", st.Name)
	}
	if st.Error != "" {
		fmt.Printf("  error: %s", st.Error)
	}
	fmt.Println()
}

// addrAndID parses the common "[-addr host:port] [-key k] <job-id>" shape,
// accepting the id before or after the flags.
func addrAndID(cmd string, args []string) (addr, key, id string, ok bool) {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	a := fs.String("addr", "localhost:8977", "aggsimd address")
	k := apiKeyFlag(fs)
	if len(args) > 0 && len(args[0]) > 0 && args[0][0] != '-' {
		id, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return "", "", "", false
	}
	if id == "" && fs.NArg() > 0 {
		id = fs.Arg(0)
	}
	if id == "" {
		fmt.Fprintf(os.Stderr, "pimdsm %s: need a job id\n", cmd)
		return "", "", "", false
	}
	return *a, *k, id, true
}

func statusCmd(args []string) int {
	addr, key, id, ok := addrAndID("status", args)
	if !ok {
		return 2
	}
	st, err := newClient(addr, key).Status(id)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pimdsm status:", err)
		return 1
	}
	printStatus(st)
	return 0
}

func resultCmd(args []string) int {
	fs := flag.NewFlagSet("result", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:8977", "aggsimd address")
	key := apiKeyFlag(fs)
	out := fs.String("o", "", "write the result envelope JSON to this file (atomic) instead of stdout")
	// Accept the job id anywhere among the flags (the flag package stops at
	// the first non-flag argument, so re-parse whatever follows the id).
	var id string
	for len(args) > 0 {
		if err := fs.Parse(args); err != nil {
			return 2
		}
		if fs.NArg() == 0 {
			break
		}
		if id == "" {
			id = fs.Arg(0)
		}
		args = fs.Args()[1:]
	}
	if id == "" {
		fmt.Fprintln(os.Stderr, "pimdsm result: need a job id")
		return 2
	}
	st, results, err := newClient(*addr, *key).Result(id)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pimdsm result:", err)
		return 1
	}
	env := struct {
		Job     pimdsm.JobStatus  `json:"job"`
		Results []json.RawMessage `json:"results"`
	}{Job: st, Results: results}
	writeOut := func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(env)
	}
	if *out != "" {
		if err := pimdsm.WriteFileAtomic(*out, writeOut); err != nil {
			fmt.Fprintln(os.Stderr, "pimdsm result:", err)
			return 1
		}
		fmt.Printf("%s: %d results -> %s\n", st.ID, len(results), *out)
		return 0
	}
	if err := writeOut(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pimdsm result:", err)
		return 1
	}
	return 0
}

// watchCmd tails the daemon's live lifecycle event stream. The SSE
// connection is re-established with Last-Event-ID after any drop, so the
// daemon replays what the watcher missed and no transition is lost.
func watchCmd(args []string) int {
	fs := flag.NewFlagSet("watch", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:8977", "aggsimd address")
	key := apiKeyFlag(fs)
	job := fs.String("job", "", "only this job's events (default: all jobs)")
	tenant := fs.String("tenant", "", "only this tenant's events (default: all tenants)")
	reconnect := fs.Duration("reconnect", time.Second, "wait between reconnect attempts (0 = exit on disconnect)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	c := newClient(*addr, *key)
	var last uint64
	for {
		got, err := c.StreamEvents(context.Background(), last, *job, *tenant, printEvent)
		if got > last {
			last = got
		}
		if *reconnect <= 0 {
			if err != nil {
				fmt.Fprintln(os.Stderr, "pimdsm watch:", err)
				return 1
			}
			return 0
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "pimdsm watch: %v; reconnecting after seq %d\n", err, last)
		}
		time.Sleep(*reconnect)
	}
}

// eventsCmd prints one job's complete lifecycle event chain.
func eventsCmd(args []string) int {
	fs := flag.NewFlagSet("events", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:8977", "aggsimd address")
	key := apiKeyFlag(fs)
	asJSON := fs.Bool("json", false, "print the raw event JSON")
	// Accept the job id anywhere among the flags (the flag package stops at
	// the first non-flag argument, so re-parse whatever follows the id).
	var id string
	for len(args) > 0 {
		if err := fs.Parse(args); err != nil {
			return 2
		}
		if fs.NArg() == 0 {
			break
		}
		if id == "" {
			id = fs.Arg(0)
		}
		args = fs.Args()[1:]
	}
	if id == "" {
		fmt.Fprintln(os.Stderr, "pimdsm events: need a job id")
		return 2
	}
	events, err := newClient(*addr, *key).JobEvents(id)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pimdsm events:", err)
		return 1
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Events []pimdsm.JobEvent `json:"events"`
		}{events})
		return 0
	}
	for _, ev := range events {
		printEvent(ev)
	}
	return 0
}

func printEvent(ev pimdsm.JobEvent) {
	line := fmt.Sprintf("%6d %s %-10s +%dus  queue %d running %d",
		ev.Seq, ev.Job, ev.Kind, ev.SinceSubmitUS, ev.QueueDepth, ev.Running)
	if ev.Config >= 0 {
		line += fmt.Sprintf("  config %d", ev.Config)
	}
	if ev.Cycles > 0 {
		line += fmt.Sprintf("  %d cycles", ev.Cycles)
	}
	if ev.Detail != "" {
		line += "  " + ev.Detail
	}
	fmt.Println(line)
}

func jobsCmd(args []string) int {
	fs := flag.NewFlagSet("jobs", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:8977", "aggsimd address")
	key := apiKeyFlag(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	c := newClient(*addr, *key)
	jobs, err := c.Jobs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pimdsm jobs:", err)
		return 1
	}
	if len(jobs) == 0 {
		fmt.Println("no jobs")
		return 0
	}
	for _, st := range jobs {
		printStatus(st)
	}
	if st, err := c.Stats(); err == nil {
		fmt.Printf("server: queue %d/%d, running %d; cache %d/%d (%d hits, %d misses); %d runs simulated\n",
			st.Queued, st.QueueLimit, st.Running,
			st.Cache.Entries, st.Cache.Limit, st.Cache.Hits, st.Cache.Misses, st.SimulatedRuns)
	}
	return 0
}

// usageCmd prints tenant usage from a multi-tenant daemon: every tenant, or
// one tenant's cumulative ledger when a name is given.
func usageCmd(args []string) int {
	fs := flag.NewFlagSet("usage", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:8977", "aggsimd address")
	key := apiKeyFlag(fs)
	asJSON := fs.Bool("json", false, "print the raw snapshot JSON")
	// Accept the tenant name before or after the flags.
	var name string
	if len(args) > 0 && len(args[0]) > 0 && args[0][0] != '-' {
		name, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if name == "" && fs.NArg() > 0 {
		name = fs.Arg(0)
	}
	c := newClient(*addr, *key)
	var snaps []pimdsm.TenantSnapshot
	if name != "" {
		snap, err := c.Usage(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pimdsm usage:", err)
			return 1
		}
		snaps = []pimdsm.TenantSnapshot{snap}
	} else {
		var err error
		snaps, err = c.Tenants()
		if err != nil {
			fmt.Fprintln(os.Stderr, "pimdsm usage:", err)
			return 1
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Tenants []pimdsm.TenantSnapshot `json:"tenants"`
		}{snaps}); err != nil {
			fmt.Fprintln(os.Stderr, "pimdsm usage:", err)
			return 1
		}
		return 0
	}
	for _, t := range snaps {
		printTenant(t)
	}
	return 0
}

// printTenant renders one tenant snapshot: live state, then the cumulative
// (restart-surviving) bill.
func printTenant(t pimdsm.TenantSnapshot) {
	fmt.Printf("%s: %d queued, %d running", t.Name, t.Queued, t.Running)
	if t.RatePerSec > 0 {
		fmt.Printf("  (rate %.3g/s burst %d)", t.RatePerSec, t.Burst)
	}
	if t.MaxQueued > 0 || t.MaxActive > 0 {
		fmt.Printf("  (quota queued %d active %d)", t.MaxQueued, t.MaxActive)
	}
	fmt.Println()
	u := t.Total
	fmt.Printf("  jobs:   %d submitted, %d done, %d failed, %d aborted, %d rejected\n",
		u.JobsSubmitted, u.JobsDone, u.JobsFailed, u.JobsAborted, u.Rejected())
	fmt.Printf("  cache:  %d hits, %d misses, %d joins\n", u.CacheHits, u.CacheMisses, u.Joins)
	fmt.Printf("  engine: %d runs, %d cycles\n", u.SimulatedRuns, u.EngineCycles)
	fmt.Printf("  bytes:  %d result, %d artifact\n", u.ResultBytes, u.ArtifactBytes)
}
