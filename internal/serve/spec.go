// Package serve turns the simulator into a long-running service: a bounded
// admission window, a content-addressed LRU result cache with singleflight
// collapsing of identical in-flight work, one per-node pool of simulation
// slots that every run takes and that queues its waiters by job priority
// (results, which depend only on their config, are the same at any budget),
// and a JSON/HTTP API mounted alongside the
// obs.Dashboard handlers. Shutdown is graceful: running jobs drain and the
// cache index persists to disk for the next daemon instance.
//
// The package deliberately depends only on internal packages; the root
// pimdsm package re-exports the public surface and resolves the slot budget
// (serve cannot import the root package without a cycle).
package serve

import (
	"pimdsm/internal/hashmap"
	"pimdsm/internal/machine"
	"pimdsm/internal/workload"
)

// KeyVersion versions the cache-key derivation (canonical field order plus
// the hashmap.Digest encoding). Bump it whenever either changes: persisted
// cache indexes carry the version and stale entries are dropped on load
// instead of being served under a colliding key.
const KeyVersion = 1

// ConfigSpec is the wire form of one simulation configuration: exactly the
// result-determining fields of machine.Config, none of the observer
// attachments (Trace, Metrics, Spans, Profile, Audit, PhaseProgress — all
// record-only, so two configs differing only there produce byte-identical
// results and deliberately share a cache key).
type ConfigSpec struct {
	Arch     string  `json:"arch"`
	App      string  `json:"app"`
	Scale    float64 `json:"scale,omitempty"`
	Threads  int     `json:"threads"`
	Pressure float64 `json:"pressure"`
	DRatio   int     `json:"dratio,omitempty"`
	DNodes   int     `json:"dnodes,omitempty"`

	PMemBytes uint64 `json:"pmem_bytes,omitempty"`
	DMemTotal uint64 `json:"dmem_total,omitempty"`

	OnChipFraction float64 `json:"on_chip_fraction,omitempty"`
	SharedMinFrac  float64 `json:"shared_min_frac,omitempty"`
	HandlerScale   float64 `json:"handler_scale,omitempty"`
	DMemSetAssoc   int     `json:"dmem_set_assoc,omitempty"`
}

// SpecOf extracts the wire spec from a machine config, dropping the
// observer attachments.
func SpecOf(cfg machine.Config) ConfigSpec {
	return ConfigSpec{
		Arch:           string(cfg.Arch),
		App:            cfg.App.Name,
		Scale:          cfg.App.Scale,
		Threads:        cfg.Threads,
		Pressure:       cfg.Pressure,
		DRatio:         cfg.DRatio,
		DNodes:         cfg.DNodes,
		PMemBytes:      cfg.PMemBytesOverride,
		DMemTotal:      cfg.DMemTotalOverride,
		OnChipFraction: cfg.OnChipFraction,
		SharedMinFrac:  cfg.SharedMinFrac,
		HandlerScale:   cfg.HandlerScale,
		DMemSetAssoc:   cfg.DMemSetAssoc,
	}
}

// Config builds the machine config a slot will run.
func (s ConfigSpec) Config() machine.Config {
	return machine.Config{
		Arch:              machine.Arch(s.Arch),
		App:               workload.Spec{Name: s.App, Scale: s.Scale},
		Threads:           s.Threads,
		Pressure:          s.Pressure,
		DRatio:            s.DRatio,
		DNodes:            s.DNodes,
		PMemBytesOverride: s.PMemBytes,
		DMemTotalOverride: s.DMemTotal,
		OnChipFraction:    s.OnChipFraction,
		SharedMinFrac:     s.SharedMinFrac,
		HandlerScale:      s.HandlerScale,
		DMemSetAssoc:      s.DMemSetAssoc,
	}
}

// canonical resolves the "zero means default" conventions the simulator
// applies, so that e.g. Scale 0 and Scale 1.0 — which run the identical
// simulation — also hash to the identical key. Likewise a float field of
// −0 (which JSON's "-0" decodes to) runs as 0 and becomes +0, since Key
// hashes the float's bits.
func (s ConfigSpec) canonical() ConfigSpec {
	if s.Scale == 0 {
		s.Scale = 1.0
	}
	s.Pressure = plusZero(s.Pressure)
	s.OnChipFraction = plusZero(s.OnChipFraction)
	s.SharedMinFrac = plusZero(s.SharedMinFrac)
	s.HandlerScale = plusZero(s.HandlerScale)
	if s.Arch == string(machine.AGG) {
		if s.DNodes != 0 {
			s.DRatio = 0 // DNodes overrides DRatio; its value is irrelevant
		} else if s.DRatio == 0 {
			s.DRatio = 1
		}
	} else {
		// NUMA/COMA ignore the D-node split entirely.
		s.DRatio, s.DNodes = 0, 0
		s.DMemTotal = 0
	}
	return s
}

// plusZero returns f, with −0 as +0.
func plusZero(f float64) float64 {
	if f == 0 {
		return 0
	}
	return f
}

// Key derives the 64-bit content address of this configuration (canonical
// form) plus a seed. The seed is reserved for future stochastic workloads;
// today every run is deterministic from the config alone, so distinct seeds
// merely shard the cache.
//
// STABILITY CONTRACT: field order and encodings here are frozen for
// KeyVersion 1 (see key_test.go's golden values). Add fields only at the
// end, and only together with a KeyVersion bump.
func (s ConfigSpec) Key(seed uint64) uint64 { return s.keyAt(KeyVersion, seed) }

// keyAt is Key as derived under key version v.
func (s ConfigSpec) keyAt(v, seed uint64) uint64 {
	c := s.canonical()
	var d hashmap.Digest
	d.WriteUint64(v)
	d.WriteString(c.Arch)
	d.WriteString(c.App)
	d.WriteFloat64(c.Scale)
	d.WriteInt(c.Threads)
	d.WriteFloat64(c.Pressure)
	d.WriteInt(c.DRatio)
	d.WriteInt(c.DNodes)
	d.WriteUint64(c.PMemBytes)
	d.WriteUint64(c.DMemTotal)
	d.WriteFloat64(c.OnChipFraction)
	d.WriteFloat64(c.SharedMinFrac)
	d.WriteFloat64(c.HandlerScale)
	d.WriteInt(c.DMemSetAssoc)
	d.WriteUint64(seed)
	return d.Sum64()
}
