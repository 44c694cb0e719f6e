package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"pimdsm"
)

// simWorkload is a sim-* workload: a fixed list of simulations, each run
// alone (one at a time, like Sweep{Workers: 1}), pass after pass in a
// seed-permuted order.
type simWorkload struct {
	configs     func(scale float64) []pimdsm.Config
	scale       float64 // full size
	smallScale  float64 // minimal size, for the benchmark's own tests
	passSeconds float64 // nominal host seconds per pass; fixes passes per --seconds
	warmup      int     // index of the untimed set-up simulation
}

var simWorkloads = map[string]simWorkload{
	// AGG's private streaming apps: P-node local memory serves most reads
	// that leave the caches.
	"sim-private": {configs: privateConfigs, scale: 1.0, smallScale: 0.05, passSeconds: 1.75, warmup: 2},
	// Coherence-bound apps on all three machines: remote 2-/3-hop reads,
	// mesh traffic, COMA injections and D-node handlers.
	"sim-shared": {configs: sharedConfigs, scale: 0.5, smallScale: 0.05, passSeconds: 5.0, warmup: 6},
}

// privateConfigs is 1/1AGG on swim and tomcatv at 25% and 75% pressure.
func privateConfigs(scale float64) []pimdsm.Config {
	var out []pimdsm.Config
	for _, app := range []string{"swim", "tomcatv"} {
		for _, pressure := range []float64{0.25, 0.75} {
			out = append(out, pimdsm.Config{Arch: pimdsm.AGG, App: pimdsm.App(app, scale),
				Threads: 32, Pressure: pressure, DRatio: 1})
		}
	}
	return out
}

// sharedConfigs is radix, barnes and dbase at 75% pressure on NUMA, COMA
// and the Figure-6 reduced AGG.
func sharedConfigs(scale float64) []pimdsm.Config {
	var out []pimdsm.Config
	for _, app := range []string{"radix", "barnes", "dbase"} {
		for _, arch := range []pimdsm.Arch{pimdsm.NUMA, pimdsm.COMA, pimdsm.AGG} {
			c := pimdsm.Config{Arch: arch, App: pimdsm.App(app, scale), Threads: 32, Pressure: 0.75}
			if arch == pimdsm.AGG {
				c.DRatio = pimdsm.ReducedRatio(app)
			}
			out = append(out, c)
		}
	}
	return out
}

// label names a config in the reference file.
func label(c pimdsm.Config) string {
	return fmt.Sprintf("%s/%s/scale=%g/threads=%d/pressure=%g/dratio=%d",
		c.Arch, c.App.Name, c.App.Scale, c.Threads, c.Pressure, c.DRatio)
}

// refEntry is the checked subset of one Result.
type refEntry struct {
	ExecCycles   uint64    `json:"exec_cycles"`
	Reads        [5]uint64 `json:"reads"` // L1, L2, local memory, 2-hop, 3-hop
	MeshMessages uint64    `json:"mesh_messages"`
}

func entryOf(r *pimdsm.Result) refEntry {
	return refEntry{ExecCycles: uint64(r.Breakdown.Exec), Reads: r.Machine.ReadCount, MeshMessages: r.Mesh.Messages}
}

// reference maps config labels to their expected counters.
type reference map[string]refEntry

func loadReference(path string) (reference, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read reference: %w", err)
	}
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("parse reference %s: %w", path, err)
	}
	return ref, nil
}

// check compares one run against the reference.
func (ref reference) check(c pimdsm.Config, r *pimdsm.Result, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", label(c), err)
	}
	want, ok := ref[label(c)]
	if !ok {
		return fmt.Errorf("%s: no reference entry", label(c))
	}
	if got := entryOf(r); got != want {
		return fmt.Errorf("%s: got %+v, reference %+v", label(c), got, want)
	}
	return nil
}

// writeReference runs every sim-* config at both sizes once and records the
// checked counters.
func writeReference(path string) error {
	ref := reference{}
	for _, w := range simWorkloads {
		for _, scale := range []float64{w.scale, w.smallScale} {
			for _, c := range w.configs(scale) {
				r, err := pimdsm.Run(c)
				if err != nil {
					return err
				}
				ref[label(c)] = entryOf(r)
			}
		}
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// opsOf is the simulated op count of a run.
func opsOf(r *pimdsm.Result) uint64 {
	var n uint64
	for _, t := range r.PerThread {
		n += t.Ops
	}
	return n
}

// model sums the deterministic simulated counters of a set of runs.
type model struct {
	exec, meshMessages, meshQueued        uint64
	reads                                 [5]uint64
	invalidations, writebacks, injections uint64
	dprocBusy, dprocWaited                uint64
}

func (m *model) add(r *pimdsm.Result) {
	m.exec += uint64(r.Breakdown.Exec)
	for i := range m.reads {
		m.reads[i] += r.Machine.ReadCount[i]
	}
	m.meshMessages += r.Mesh.Messages
	m.meshQueued += uint64(r.Mesh.Queued)
	m.invalidations += r.Machine.Invalidations
	m.writebacks += r.Machine.WriteBacks
	m.injections += r.Machine.Injections
	m.dprocBusy += uint64(r.DProcBusy)
	m.dprocWaited += uint64(r.DProcWaited)
}

// set reports m as the model.* metrics.
func (m model) set(layer map[string]float64) {
	vals := []uint64{m.exec, m.reads[0], m.reads[1], m.reads[2], m.reads[3], m.reads[4]}
	for i, v := range vals {
		layer[modelNames[i]] = float64(v)
	}
	if away := m.reads[2] + m.reads[3] + m.reads[4]; away > 0 {
		layer["model.local_mem_ratio"] = float64(m.reads[2]) / float64(away)
	}
	layer["model.mesh.messages"] = float64(m.meshMessages)
	layer["model.mesh.queued_cycles"] = float64(m.meshQueued)
	layer["model.invalidations"] = float64(m.invalidations)
	layer["model.writebacks"] = float64(m.writebacks)
	layer["model.injections"] = float64(m.injections)
	layer["model.dproc.busy_cycles"] = float64(m.dprocBusy)
	layer["model.dproc.waited_cycles"] = float64(m.dprocWaited)
}

// simCall is one timed pimdsm.Run call.
type simCall struct {
	pass       int
	cfg        int
	start, end time.Time
	ops        uint64
}

func runSim(p params, w simWorkload, o *outcome) error {
	ref, err := loadReference(p.refPath)
	if err != nil {
		return err
	}
	scale := w.scale
	passes := max(1, int(math.Round(float64(p.seconds)/w.passSeconds)))
	if p.small {
		scale, passes = w.smallScale, 1
	}

	// Set-up: build the configs and run one untimed warm-up simulation.
	var cfgs []pimdsm.Config
	var setups []float64
	for range setupRepeats {
		t0 := time.Now()
		cfgs = w.configs(scale)
		c := cfgs[w.warmup]
		r, err := pimdsm.Run(c)
		setups = append(setups, time.Since(t0).Seconds())
		o.check(ref.check(c, r, err))
	}
	o.e2e["setup_s"] = median(setups)

	rng := rand.New(rand.NewSource(p.seed))
	var calls []simCall
	var models []model
	var prof *cpuProfile
	if p.trace {
		if prof, err = startCPUProfile(); err != nil {
			return err
		}
	}
	before := sampleHost()
	for pass := range passes {
		if time.Since(processStart) > runBudget {
			for range len(cfgs) * (passes - pass) {
				o.check(fmt.Errorf("run budget of %s spent before pass %d", runBudget, pass))
			}
			break
		}
		var m model
		for _, i := range rng.Perm(len(cfgs)) {
			start := time.Now()
			r, err := pimdsm.Run(cfgs[i])
			end := time.Now()
			err = ref.check(cfgs[i], r, err)
			o.check(err)
			if err != nil {
				continue
			}
			calls = append(calls, simCall{pass: pass, cfg: i, start: start, end: end, ops: opsOf(r)})
			m.add(r)
		}
		models = append(models, m)
	}
	after := sampleHost()
	if prof != nil {
		if o.profile, err = prof.stop(); err != nil {
			return err
		}
	}

	// End to end. Host wall covers the timed passes, checks included. Every
	// pass runs the same configs, so the p99 is taken over each config's
	// mean latency: the slowest config's mean, where the p99 of single calls
	// would be the one call that met the worst burst of host contention.
	wall := after.at.Sub(before.at).Seconds()
	var ops uint64
	lat := make([]float64, 0, len(calls))
	cfgLat := map[int][]float64{}
	for _, c := range calls {
		ms := c.end.Sub(c.start).Seconds() * 1e3
		ops += c.ops
		lat = append(lat, ms)
		cfgLat[c.cfg] = append(cfgLat[c.cfg], ms)
	}
	var cfgMeans []float64
	for _, ms := range cfgLat {
		cfgMeans = append(cfgMeans, mean(ms))
	}
	n := float64(max(len(calls), 1))
	o.e2e["sim_ops_per_s"] = float64(ops) / wall
	o.e2e["req_per_s"] = float64(len(calls)) / wall
	o.e2e["latency_p50_ms"] = median(lat)
	o.e2e["latency_p99_ms"] = percentile(cfgMeans, 0.99)
	o.e2e["cpu_ms_per_req"] = float64(after.cpu-before.cpu) / 1e6 / n

	// Per layer.
	o.layer["traced.sim_ops_per_s"] = o.e2e["sim_ops_per_s"]
	perOp := 1 / float64(max(ops, 1))
	runNS, runOps := map[string]float64{}, map[string]uint64{}
	for _, c := range calls {
		arch := string(cfgs[c.cfg].Arch)
		runNS[arch] += float64(c.end.Sub(c.start).Nanoseconds())
		runOps[arch] += c.ops
	}
	for arch, ns := range runNS {
		o.layer["run."+arch+".ns_per_op"] = ns / float64(max(runOps[arch], 1))
	}
	o.layer["alloc_bytes_per_op"] = float64(after.allocated-before.allocated) * perOp
	o.layer["gc_cpu_fraction"] = gcFraction(before, after)
	if len(models) > 0 {
		models[0].set(o.layer)
		for i, m := range models[1:] {
			if m != models[0] {
				o.selfCheck("model counters of pass %d differ from pass 0", i+1)
			}
		}
	}
	if o.profile != nil {
		self, err := cpuByBucket(o.profile, simBucket)
		if err != nil {
			return err
		}
		for _, pkg := range simPackages {
			o.layer["self."+pkg+".ns_per_op"] = float64(self[pkg]) * perOp
		}
	}

	// Spans: one per pass, one per Run call under it.
	t0 := before.at
	passSpan := map[int]int{}
	for _, c := range calls {
		ps, ok := passSpan[c.pass]
		if !ok {
			ps = len(o.spans)
			passSpan[c.pass] = ps
			o.spans = append(o.spans, span{ID: c.pass, Name: "pass", Parent: -1,
				Start: elapsedNS(c.start, t0)})
		}
		o.spans[ps].End = elapsedNS(c.end, t0)
		o.spans = append(o.spans, span{ID: c.pass, Name: "run " + label(cfgs[c.cfg]), Parent: ps,
			Start: elapsedNS(c.start, t0), End: elapsedNS(c.end, t0)})
	}
	return nil
}
