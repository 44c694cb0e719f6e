package pimdsm

import (
	"fmt"
	"strings"

	"pimdsm/internal/obs"
)

// PhaseRow is one configuration's miss-latency decomposition: the average
// cycles per retired transaction attributed to each phase of the critical
// path (issue, request trip, directory occupancy, owner fetch, reply trip,
// retirement). The per-phase averages sum to AvgLat because every span's
// buckets sum exactly to its end-to-end latency.
type PhaseRow struct {
	App   string
	Label string // figure 6 configuration label (NUMA, COMA75, 1/1AGG25, ...)
	Arch  Arch

	Retired uint64 // transactions folded into the averages
	Bad     uint64 // attribution failures (0 on a healthy engine)
	AvgLat  float64
	Phase   [obs.NumPhases]float64
	Queued  float64 // mesh link queueing overlay (inside the phases, not extra)

	// Spans is the run's full recorder, for per-(direction, class) detail
	// beyond the aggregated row.
	Spans *Spans
}

// Decompose runs the Figure 6 configurations of each selected application
// with a span recorder attached and returns one aggregated phase-breakdown
// row per configuration — the paper's Figure 6/7 "where do the cycles go"
// question answered per protocol phase rather than per satisfaction level.
//
// Each configuration gets its own recorder, so the runs parallelize like any
// other batch; recording never changes simulation results.
func Decompose(opt Options) ([]PhaseRow, error) {
	opt = opt.withDefaults()
	var out []PhaseRow
	for _, app := range opt.Apps {
		cs := figure6Configs(app, opt)
		cfgs := make([]Config, len(cs))
		recs := make([]*obs.Spans, len(cs))
		for i := range cs {
			cfgs[i] = cs[i].cfg
			recs[i] = obs.NewSpans(0)
			cfgs[i].Spans = recs[i]
		}
		if _, err := opt.runMany(cfgs); err != nil {
			return nil, err
		}
		for i := range cs {
			out = append(out, phaseRow(app, cs[i].label, cfgs[i].Arch, recs[i]))
		}
	}
	return out, nil
}

// phaseRow is obs.SnapshotSpans's breakdown of a recorder, with the phase
// averages indexed by phase.
func phaseRow(app, label string, arch Arch, s *obs.Spans) PhaseRow {
	b := obs.SnapshotSpans(s)
	row := PhaseRow{App: app, Label: label, Arch: arch,
		Retired: b.Retired, Bad: b.Bad, AvgLat: b.AvgLat, Queued: b.Queued, Spans: s}
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		row.Phase[p] = b.Phases[p.String()]
	}
	return row
}

// FormatDecompose renders the decomposition as a text table, one row per
// (application, configuration).
func FormatDecompose(rows []PhaseRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Miss-latency decomposition: avg cycles per memory transaction, by phase\n")
	fmt.Fprintf(&b, "%-8s %-10s %10s %8s", "app", "config", "count", "avg-lat")
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		fmt.Fprintf(&b, " %9s", p)
	}
	fmt.Fprintf(&b, " %9s\n", "queued")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-8s %-10s %10d %8.1f", row.App, row.Label, row.Retired, row.AvgLat)
		for p := obs.Phase(0); p < obs.NumPhases; p++ {
			fmt.Fprintf(&b, " %9.1f", row.Phase[p])
		}
		fmt.Fprintf(&b, " %9.1f", row.Queued)
		if row.Bad > 0 {
			fmt.Fprintf(&b, "  [%d BAD]", row.Bad)
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}
