package serve

import (
	"testing"
)

// TestKeyDistributionUniform bucket-tests the frozen job-key digest: the
// consistent-hash ring (and the replica placement on it) assumes
// ConfigSpec.Key spreads real configuration sweeps evenly over the 64-bit
// space. A chi-square test over the top 6 bits of several thousand generated
// specs catches a digest regression that would silently skew cluster
// ownership long before any routing test would.
func TestKeyDistributionUniform(t *testing.T) {
	const buckets = 64
	var counts [buckets]int
	n := 0
	bucket := func(cs ConfigSpec) {
		counts[cs.Key()>>58]++
		n++
	}

	// A realistic sweep grid: the Figure 6 families crossed with thread
	// counts, pressures, scales, a handler-cost variant and an explicit
	// D-node split — the shape of keys an aggsimd cluster actually
	// partitions.
	for _, arch := range []string{"numa", "coma", "agg", "agg-split"} {
		for _, app := range []string{"fft", "radix", "ocean", "lu", "barnes", "water"} {
			for _, threads := range []int{1, 2, 4, 8, 16, 32} {
				for _, pressure := range []float64{0, 0.25, 0.5, 0.75} {
					for _, scale := range []float64{0.02, 0.1, 1} {
						cs := ConfigSpec{
							Arch: arch, App: app, Threads: threads,
							Pressure: pressure, Scale: scale,
						}
						bucket(cs)
						hs := cs
						hs.HandlerScale = 0.7
						bucket(hs)
						cs.DRatio, cs.DNodes = 4, 8
						bucket(cs)
					}
				}
			}
		}
	}
	if n < 4096 {
		t.Fatalf("only %d generated specs; the grid is supposed to produce >= 4096", n)
	}

	exp := float64(n) / buckets
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - exp
		chi2 += d * d / exp
	}
	// df = 63; the p=0.001 critical value is ~106. The digest is frozen
	// (KeyVersion 1), so this is deterministic — a failure means the digest
	// or the spec canonicalization changed, not bad luck.
	t.Logf("chi-square = %.1f over %d buckets (n=%d)", chi2, buckets, n)
	if chi2 > 106 {
		t.Fatalf("chi-square = %.1f over %d buckets (n=%d), exceeds the df=63 p=0.001 critical value 106 — key distribution is skewed", chi2, buckets, n)
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("bucket %d empty over %d keys", i, n)
		}
	}
}
