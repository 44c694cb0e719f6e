package serve

import (
	"math"
	"slices"
	"testing"

	"pimdsm/internal/machine"
	"pimdsm/internal/obs"
	"pimdsm/internal/workload"
)

// TestKeyGolden pins the cache-key derivation: these exact values are what
// a persisted cache index is verified against, so they may change only
// together with a KeyVersion bump (which invalidates persisted indexes
// deliberately). If this test fails, you changed the key contract.
func TestKeyGolden(t *testing.T) {
	cases := []struct {
		name string
		spec ConfigSpec
		want uint64
	}{
		{
			name: "fig6-numa",
			spec: ConfigSpec{Arch: "numa", App: "fft", Scale: 1.0, Threads: 32, Pressure: 0.75},
			want: 0xbe307a4db1904cbd,
		},
		{
			name: "fig6-agg11",
			spec: ConfigSpec{Arch: "agg", App: "fft", Scale: 1.0, Threads: 32, Pressure: 0.75, DRatio: 1},
			want: 0xe076f3f61cf24050,
		},
	}
	for _, c := range cases {
		if got := c.spec.Key(); got != c.want {
			t.Errorf("%s: key = %#016x, want %#016x (KEY CONTRACT BROKEN — bump KeyVersion)",
				c.name, got, c.want)
		}
	}
}

// TestArtifactDigestGolden pins flight-record names: a restarted daemon finds
// the records an earlier one stored only while the digest of the same
// configs stays the same.
func TestArtifactDigestGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		spec JobSpec
		want uint64
	}{
		{"fft", spec1("fft"), 0x2f6d51115ca4e98e},
		{"fig6-fft", JobSpec{Configs: fig6Batch("fft", 32, 0.02)}, 0xa60f43102f496974},
	} {
		if got := artifactDigest(c.spec); got != c.want {
			t.Errorf("%s: artifact digest = %#016x, want %#016x", c.name, got, c.want)
		}
	}
}

func TestKeyCanonicalEquivalence(t *testing.T) {
	// Zero scale means 1.0; zero DRatio means 1 on AGG; DNodes overrides
	// DRatio; NUMA/COMA ignore the split entirely.
	base := ConfigSpec{Arch: "agg", App: "fft", Threads: 32, Pressure: 0.75}
	a := base
	a.Scale, a.DRatio = 1.0, 1
	if base.Key() != a.Key() {
		t.Error("zero-default spec and explicit-default spec hash differently")
	}
	b, c := base, base
	b.DNodes, b.DRatio = 8, 1
	c.DNodes, c.DRatio = 8, 4
	if b.Key() != c.Key() {
		t.Error("DRatio must be irrelevant when DNodes is set")
	}
	n1 := ConfigSpec{Arch: "numa", App: "fft", Threads: 32, Pressure: 0.75}
	n2 := n1
	n2.DRatio, n2.DNodes, n2.DMemTotal = 4, 8, 1<<20
	if n1.Key() != n2.Key() {
		t.Error("NUMA must ignore the D-node split in its key")
	}
	// JSON's "-0" decodes to −0, which the simulator runs as 0.
	z := a
	negZero := math.Copysign(0, -1)
	z.OnChipFraction, z.SharedMinFrac, z.HandlerScale = negZero, negZero, negZero
	if z.Key() != a.Key() {
		t.Error("a −0 float field must hash as the omitted field")
	}
}

func TestKeyDiscriminates(t *testing.T) {
	base := ConfigSpec{Arch: "agg", App: "fft", Scale: 1.0, Threads: 32, Pressure: 0.75, DRatio: 1}
	seen := map[uint64]string{base.Key(): "base"}
	add := func(name string, s ConfigSpec) {
		k := s.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[k] = name
	}
	m := base
	m.App = "radix"
	add("app", m)
	m = base
	m.Threads = 16
	add("threads", m)
	m = base
	m.Pressure = 0.25
	add("pressure", m)
	m = base
	m.DRatio = 4
	add("dratio", m)
	m = base
	m.HandlerScale = 0.7
	add("handler-scale", m)
	m = base
	m.DMemSetAssoc = 4
	add("dmem-set-assoc", m)
}

// TestSpecOfIgnoresObservers: two configs differing only in record-only
// attachments are the same simulation, hence the same cache key.
func TestSpecOfIgnoresObservers(t *testing.T) {
	cfg := machine.Config{
		Arch: machine.AGG, App: workload.Spec{Name: "fft", Scale: 1},
		Threads: 32, Pressure: 0.75, DRatio: 1,
	}
	plain := SpecOf(cfg)
	cfg.Trace = obs.NewTrace(0)
	cfg.Metrics = obs.NewRegistry()
	cfg.Spans = obs.NewSpans(0)
	cfg.Profile = obs.NewProfile()
	cfg.Audit = true
	if SpecOf(cfg) != plain {
		t.Fatal("observer attachments leaked into the wire spec")
	}
	if SpecOf(cfg).Key() != plain.Key() {
		t.Fatal("observer attachments changed the cache key")
	}
}

func TestSpecConfigRoundTrip(t *testing.T) {
	s := ConfigSpec{
		Arch: "agg", App: "ocean", Scale: 0.5, Threads: 16, Pressure: 0.25,
		DRatio: 2, DNodes: 0, PMemBytes: 1 << 20, DMemTotal: 1 << 22,
		OnChipFraction: 0.3, SharedMinFrac: 0.1, HandlerScale: 0.7, DMemSetAssoc: 4,
	}
	if got := SpecOf(s.Config()); got != s {
		t.Fatalf("round trip: got %+v want %+v", got, s)
	}
}

// FuzzConfigSpecKey holds decode → canonicalize → key to its two
// properties: canonicalizing a canonical spec changes no bit, and specs
// whose canonical forms compare == get equal keys. The pairs are every two
// configs of the decoded submission, and each config against itself with
// the sign of every zero float flipped (JSON's "-0" decodes to −0, which
// runs as 0). Seeds live in testdata/fuzz/FuzzConfigSpecKey.
func FuzzConfigSpecKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeJobSpec(data)
		if err != nil {
			return
		}
		cs := spec.Configs[:min(len(spec.Configs), 16)]
		pairs := slices.Clone(cs)
		for _, c := range cs {
			once := c.canonical()
			if a, b := specBits(once), specBits(once.canonical()); a != b {
				t.Fatalf("%+v: canonical twice changed bits:\n %+v\n %+v", c, a, b)
			}
			flipped := c
			for _, p := range []*float64{&flipped.Scale, &flipped.Pressure,
				&flipped.OnChipFraction, &flipped.SharedMinFrac, &flipped.HandlerScale} {
				if *p == 0 {
					*p = math.Copysign(0, -math.Copysign(1, *p))
				}
			}
			pairs = append(pairs, flipped)
		}
		for i, a := range pairs {
			for _, b := range pairs[i+1:] {
				if a.canonical() == b.canonical() && a.Key() != b.Key() {
					t.Fatalf("canonical specs compare == but keys differ:\n %+v: %#016x\n %+v: %#016x",
						a, a.Key(), b, b.Key())
				}
			}
		}
	})
}

// bitSpec is a ConfigSpec with its floats moved out as their bits, so ==
// tells −0 from +0.
type bitSpec struct {
	ConfigSpec
	floats [5]uint64
}

func specBits(s ConfigSpec) bitSpec {
	b := bitSpec{s, [5]uint64{math.Float64bits(s.Scale), math.Float64bits(s.Pressure),
		math.Float64bits(s.OnChipFraction), math.Float64bits(s.SharedMinFrac), math.Float64bits(s.HandlerScale)}}
	b.Scale, b.Pressure, b.OnChipFraction, b.SharedMinFrac, b.HandlerScale = 0, 0, 0, 0, 0
	return b
}
