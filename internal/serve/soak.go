package serve

// Load/soak harness for the service edge. RunSoak storms a live daemon with
// concurrent clients and then audits the daemon's own answers: submit/status
// latency SLOs from pow2 histograms, bounded admission pushback, an
// exactly-once simulation proof from the engine cycle counters, complete and
// ordered lifecycle event chains, and a parseable Prometheus exposition.
// Everything it asserts is observable from outside the process, so the same
// harness runs against an in-test httptest server (make soak-smoke) or a
// long-lived production daemon (cmd/soak).

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"pimdsm/internal/obs/svclog"
	"pimdsm/internal/sim"
	"pimdsm/internal/stats"
)

// SoakOptions configures a soak run.
type SoakOptions struct {
	// Clients is the number of concurrent submitters (default 4).
	Clients int
	// JobsPerClient is how many jobs each client submits (default 4).
	JobsPerClient int
	// Specs are the job payloads, assigned round-robin across submissions.
	// Overlap between jobs is deliberate: it exercises the cache and the
	// singleflight path, and the exactly-once audit counts distinct
	// configurations across the whole storm.
	Specs []JobSpec

	// SubmitSLO caps the p99 submit round-trip (0 disables the assertion).
	SubmitSLO time.Duration
	// StatusSLO caps the p99 status-poll round-trip (0 disables).
	StatusSLO time.Duration
	// MaxRetries bounds how many 429s one submission absorbs before the
	// run counts it as a violation (default 100).
	MaxRetries int
	// RetrySleepCap caps the honored Retry-After sleep so a soak against a
	// slow daemon still terminates (default 250ms; the header is still the
	// signal — the cap only bounds the wait).
	RetrySleepCap time.Duration
	// Wait bounds how long the run waits for any one job to finish
	// (default 2 minutes).
	Wait time.Duration
	// Poll is the status poll interval (default 20ms).
	Poll time.Duration

	// APIKey authenticates the storm against a daemon running with
	// -tenants-file (empty = anonymous daemon).
	APIKey string
	// NoisyKey enables the multi-tenant isolation scenario: a second,
	// quota-bounded "noisy" tenant storms the daemon concurrently with
	// NoisyJobs submissions, and the report's SLO assertions still apply to
	// the main (quiet) tenant only — proof the quiet tenant's latency holds
	// while the noisy one absorbs bounded 429 pushback.
	NoisyKey string
	// NoisyJobs is the noisy tenant's submission count (default 32).
	NoisyJobs int
	// RequireThrottle asserts the noisy tenant was throttled at least once
	// (429 absorbed or submission finally rejected) — proof its quota
	// actually bit during the storm.
	RequireThrottle bool
}

func (o SoakOptions) withDefaults() SoakOptions {
	if o.Clients <= 0 {
		o.Clients = 4
	}
	if o.JobsPerClient <= 0 {
		o.JobsPerClient = 4
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 100
	}
	if o.RetrySleepCap <= 0 {
		o.RetrySleepCap = 250 * time.Millisecond
	}
	if o.Wait <= 0 {
		o.Wait = 2 * time.Minute
	}
	if o.Poll <= 0 {
		o.Poll = 20 * time.Millisecond
	}
	if o.NoisyKey != "" && o.NoisyJobs <= 0 {
		o.NoisyJobs = 32
	}
	return o
}

// SoakReport is the audited outcome of a soak run. Violations lists every
// failed assertion; an empty list means the daemon held its SLOs.
type SoakReport struct {
	Jobs      int `json:"jobs"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Rejected  int `json:"rejected_final"` // submissions that never got in
	Retry429s int `json:"retry_429s"`     // 429s absorbed and retried

	SubmitP99US int64 `json:"submit_p99_us"`
	StatusP99US int64 `json:"status_p99_us"`

	// DistinctConfigs is the number of distinct cache keys across every
	// submitted job; SimulatedRuns is the daemon's engine-run counter delta
	// over the storm. SimulatedRuns <= DistinctConfigs is the exactly-once
	// proof: no configuration was ever simulated twice.
	DistinctConfigs int    `json:"distinct_configs"`
	SimulatedRuns   uint64 `json:"simulated_runs"`

	EventChains int `json:"event_chains_validated"`

	// Noisy-tenant scenario counters (NoisyKey set): the noisy tenant's
	// submissions, how many completed, and how often the daemon pushed it
	// back (429s absorbed plus submissions that never got in). The quiet
	// tenant's SLOs above are asserted regardless of these.
	NoisyJobs      int `json:"noisy_jobs,omitempty"`
	NoisyDone      int `json:"noisy_done,omitempty"`
	NoisyThrottled int `json:"noisy_throttled,omitempty"`
	NoisyRejected  int `json:"noisy_rejected,omitempty"`

	Violations []string `json:"violations,omitempty"`
}

// OK reports whether every assertion held.
func (r *SoakReport) OK() bool { return len(r.Violations) == 0 }

func (r *SoakReport) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// Summary renders the report as a short human-readable block.
func (r *SoakReport) Summary() string {
	s := fmt.Sprintf(
		"soak: %d jobs (%d done, %d failed, %d rejected), %d retried 429s\n"+
			"      submit p99 %dus, status p99 %dus\n"+
			"      %d distinct configs, %d simulated runs, %d event chains validated\n",
		r.Jobs, r.Done, r.Failed, r.Rejected, r.Retry429s,
		r.SubmitP99US, r.StatusP99US,
		r.DistinctConfigs, r.SimulatedRuns, r.EventChains)
	if r.NoisyJobs > 0 {
		s += fmt.Sprintf("      noisy tenant: %d jobs (%d done, %d rejected), throttled %d times\n",
			r.NoisyJobs, r.NoisyDone, r.NoisyRejected, r.NoisyThrottled)
	}
	if r.OK() {
		return s + "      SLOs held\n"
	}
	for _, v := range r.Violations {
		s += "      VIOLATION: " + v + "\n"
	}
	return s
}

// RunSoak storms the daemon at addr and audits the outcome. The error return
// covers harness-level failures (daemon unreachable); SLO and correctness
// failures land in the report's Violations instead.
func RunSoak(addr string, opt SoakOptions) (*SoakReport, error) {
	opt = opt.withDefaults()
	if len(opt.Specs) == 0 {
		return nil, fmt.Errorf("soak: no job specs")
	}
	c := NewClient(addr)
	c.APIKey = opt.APIKey
	before, err := c.Stats()
	if err != nil {
		return nil, fmt.Errorf("soak: daemon unreachable: %w", err)
	}

	rep := &SoakReport{Jobs: opt.Clients * opt.JobsPerClient}

	var (
		mu         sync.Mutex
		submitHist stats.LatHist
		statusHist stats.LatHist
		jobIDs     []string
		jobTotals  = map[string]int{}
	)
	ctx, cancel := context.WithTimeout(context.Background(), opt.Wait)
	defer cancel()

	// The noisy tenant storms concurrently with the quiet clients below; its
	// latencies never touch the quiet histograms, so the SLO assertions
	// measure isolation, not the noise itself. Quota pushback (429 after 429)
	// is the expected outcome for it — only non-Busy failures are violations.
	var noisyWG sync.WaitGroup
	if opt.NoisyKey != "" {
		rep.NoisyJobs = opt.NoisyJobs
		nc := NewClient(addr)
		nc.APIKey = opt.NoisyKey
		noisyWG.Add(1)
		go func() {
			defer noisyWG.Done()
			var ids []string
			for j := 0; j < opt.NoisyJobs; j++ {
				spec := opt.Specs[j%len(opt.Specs)]
				spec.Name = fmt.Sprintf("soak-noisy-%d", j)
				st, retries, err := nc.SubmitRetry(ctx, spec, opt.MaxRetries, opt.RetrySleepCap)
				mu.Lock()
				rep.NoisyThrottled += retries
				if err != nil {
					rep.NoisyRejected++
					var be *BusyError
					if !errors.As(err, &be) && ctx.Err() == nil {
						rep.violate("noisy submit %s: %v", spec.Name, err)
					}
					mu.Unlock()
					continue
				}
				mu.Unlock()
				ids = append(ids, st.ID)
			}
			for _, id := range ids {
				if st, err := nc.Wait(ctx, id, opt.Poll); err == nil && st.State == JobDone {
					mu.Lock()
					rep.NoisyDone++
					mu.Unlock()
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for cl := 0; cl < opt.Clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for j := 0; j < opt.JobsPerClient; j++ {
				spec := opt.Specs[(cl*opt.JobsPerClient+j)%len(opt.Specs)]
				spec.Name = fmt.Sprintf("soak-c%d-j%d", cl, j)
				t0 := time.Now()
				st, retries, err := c.SubmitRetry(ctx, spec, opt.MaxRetries, opt.RetrySleepCap)
				d := time.Since(t0)
				mu.Lock()
				rep.Retry429s += retries
				if err != nil {
					rep.Rejected++
					rep.violate("submit %s failed after %d retries: %v", spec.Name, retries, err)
					mu.Unlock()
					continue
				}
				// Submit latency is the last successful round-trip, not
				// the retry backoff the server itself asked for.
				submitHist.Observe(sim.Time(d.Microseconds()))
				jobIDs = append(jobIDs, st.ID)
				jobTotals[st.ID] = len(spec.Configs)
				mu.Unlock()

				final, err := waitTimed(ctx, c, st.ID, opt.Poll, &mu, &statusHist)
				mu.Lock()
				switch {
				case err != nil:
					rep.violate("job %s never finished: %v", st.ID, err)
				case final.State == JobDone:
					rep.Done++
					if got := final.CacheHits + final.Simulated + final.Joins; got != final.Total {
						rep.violate("job %s accounting: hits %d + simulated %d + joins %d != total %d",
							st.ID, final.CacheHits, final.Simulated, final.Joins, final.Total)
					}
				default:
					rep.Failed++
					rep.violate("job %s finished %s: %s", st.ID, final.State, final.Error)
				}
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()
	noisyWG.Wait()

	if opt.RequireThrottle && rep.NoisyThrottled+rep.NoisyRejected == 0 {
		rep.violate("noisy tenant was never throttled (%d jobs all admitted first try)", rep.NoisyJobs)
	}

	rep.SubmitP99US = int64(submitHist.Percentile(0.99))
	rep.StatusP99US = int64(statusHist.Percentile(0.99))
	if opt.SubmitSLO > 0 && rep.SubmitP99US > opt.SubmitSLO.Microseconds() {
		rep.violate("submit p99 %dus exceeds SLO %s", rep.SubmitP99US, opt.SubmitSLO)
	}
	if opt.StatusSLO > 0 && rep.StatusP99US > opt.StatusSLO.Microseconds() {
		rep.violate("status p99 %dus exceeds SLO %s", rep.StatusP99US, opt.StatusSLO)
	}

	// Exactly-once proof: the daemon's engine-run counter moved by at most
	// the number of distinct cache keys in the storm. Every extra run would
	// mean a configuration was simulated twice despite the cache and
	// singleflight layers.
	distinct := map[uint64]struct{}{}
	for _, spec := range opt.Specs {
		for _, cs := range spec.Configs {
			distinct[cs.Key()] = struct{}{}
		}
	}
	rep.DistinctConfigs = len(distinct)
	after, err := c.Stats()
	if err != nil {
		return rep, fmt.Errorf("soak: stats after storm: %w", err)
	}
	rep.SimulatedRuns = after.SimulatedRuns - before.SimulatedRuns
	if rep.SimulatedRuns > uint64(rep.DistinctConfigs) {
		rep.violate("exactly-once broken: %d simulated runs for %d distinct configs",
			rep.SimulatedRuns, rep.DistinctConfigs)
	}

	// Lifecycle audit: every job's event chain must be complete and ordered.
	sort.Strings(jobIDs)
	for _, id := range jobIDs {
		events, err := c.JobEvents(id)
		if err != nil {
			rep.violate("job %s events: %v", id, err)
			continue
		}
		if err := ValidateEventChain(events, jobTotals[id]); err != nil {
			rep.violate("job %s event chain: %v", id, err)
			continue
		}
		rep.EventChains++
	}

	// The metrics endpoint must expose a well-formed Prometheus text format
	// while under (post-)load.
	prom, err := c.raw("/metrics.prom")
	if err != nil {
		rep.violate("/metrics.prom: %v", err)
	} else if _, err := svclog.ParsePromText(string(prom)); err != nil {
		rep.violate("/metrics.prom does not parse: %v", err)
	}
	return rep, nil
}

// waitTimed polls the job to a terminal state, feeding each status
// round-trip into hist (under mu).
func waitTimed(ctx context.Context, c *Client, id string, poll time.Duration, mu *sync.Mutex, hist *stats.LatHist) (JobStatus, error) {
	for {
		t0 := time.Now()
		st, err := c.Status(id)
		d := time.Since(t0)
		if err != nil {
			return st, err
		}
		mu.Lock()
		hist.Observe(sim.Time(d.Microseconds()))
		mu.Unlock()
		switch st.State {
		case JobDone, JobFailed, JobAborted:
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// ValidateEventChain checks one job's lifecycle events for completeness and
// order: submitted → queued → started, then per-config resolution events
// covering every one of nConfigs configurations (cache_hit, joined, or
// simulated followed by persisted), then exactly one terminal event last.
// Sequence numbers must be strictly increasing and wall-time attribution
// non-decreasing.
func ValidateEventChain(events []svclog.JobEvent, nConfigs int) error {
	if len(events) == 0 {
		return fmt.Errorf("empty chain")
	}
	var lastSeq uint64
	var lastSince int64
	for i, ev := range events {
		if ev.Seq <= lastSeq {
			return fmt.Errorf("event %d: seq %d not increasing (prev %d)", i, ev.Seq, lastSeq)
		}
		if ev.SinceSubmitUS < lastSince {
			return fmt.Errorf("event %d (%s): since_submit_us %d went backward (prev %d)",
				i, ev.Kind, ev.SinceSubmitUS, lastSince)
		}
		lastSeq, lastSince = ev.Seq, ev.SinceSubmitUS
	}
	if events[0].Kind != svclog.EvSubmitted {
		return fmt.Errorf("chain starts with %s, want %s", events[0].Kind, svclog.EvSubmitted)
	}
	term := events[len(events)-1]
	switch term.Kind {
	case svclog.EvDone, svclog.EvFailed, svclog.EvAborted:
	default:
		return fmt.Errorf("chain ends with %s, not a terminal event", term.Kind)
	}
	if term.Kind == svclog.EvAborted {
		// A drained job legitimately never starts; submitted → queued →
		// aborted is a complete chain.
		return nil
	}
	if len(events) < 2 || events[1].Kind != svclog.EvQueued {
		return fmt.Errorf("no %s event after %s", svclog.EvQueued, svclog.EvSubmitted)
	}
	started := false
	covered := map[int]bool{}
	simulated := map[int]bool{}
	persisted := map[int]bool{}
	for i, ev := range events[2 : len(events)-1] {
		switch ev.Kind {
		case svclog.EvStarted:
			if started {
				return fmt.Errorf("duplicate %s event", svclog.EvStarted)
			}
			started = true
		case svclog.EvCacheHit, svclog.EvJoined, svclog.EvSimulated, svclog.EvPersisted:
			if !started {
				return fmt.Errorf("%s before %s", ev.Kind, svclog.EvStarted)
			}
			if ev.Config < 0 || ev.Config >= nConfigs {
				return fmt.Errorf("event %d (%s): config %d out of range [0,%d)", i+2, ev.Kind, ev.Config, nConfigs)
			}
			switch ev.Kind {
			case svclog.EvSimulated:
				simulated[ev.Config] = true
			case svclog.EvPersisted:
				if !simulated[ev.Config] {
					return fmt.Errorf("config %d persisted without a %s event", ev.Config, svclog.EvSimulated)
				}
				persisted[ev.Config] = true
			default:
				covered[ev.Config] = true
			}
		default:
			return fmt.Errorf("event %d: unexpected mid-chain kind %s", i+2, ev.Kind)
		}
	}
	if !started {
		return fmt.Errorf("no %s event", svclog.EvStarted)
	}
	if term.Kind == svclog.EvDone {
		for cfg := 0; cfg < nConfigs; cfg++ {
			if !covered[cfg] && !simulated[cfg] {
				return fmt.Errorf("config %d has no resolution event", cfg)
			}
		}
		for cfg := range simulated {
			if !persisted[cfg] {
				return fmt.Errorf("config %d simulated but never persisted", cfg)
			}
		}
	}
	return nil
}
