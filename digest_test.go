package pimdsm

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/figure6_digests.json or testdata/observer_digests.json")

const figure6DigestsPath = "testdata/figure6_digests.json"

// TestFigure6Digests pins every Figure 6 configuration of every application
// byte for byte: the SHA-256 of each json.Marshal(Result) at scale 0.02 with
// 32 threads must match testdata/figure6_digests.json. A simulator change
// that moves any counter of any config fails here. Rewrite the file only for
// a deliberate change to simulated results:
// `go test . -run TestFigure6Digests -update`.
func TestFigure6Digests(t *testing.T) {
	if raceEnabled {
		t.Skip("49 simulations; the non-race test run covers the digests")
	}
	got := map[string]string{}
	for _, app := range Apps() {
		for _, spec := range Figure6Specs(app, 32, 0.02) {
			cfg := spec.Config()
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", digestName(cfg), err)
			}
			js, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(js)
			got[digestName(cfg)] = hex.EncodeToString(sum[:])
		}
	}
	if *updateDigests {
		js, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(figure6DigestsPath, append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(figure6DigestsPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d configs simulated, golden has %d", len(got), len(want))
	}
	for name, w := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: in the golden but not simulated", name)
		} else if g != w {
			t.Errorf("%s: result digest %s, golden %s", name, g, w)
		}
	}
}

// digestName labels one Figure 6 configuration in the golden file.
func digestName(cfg Config) string {
	return fmt.Sprintf("%s/%s/p%.2f/d%d", cfg.App.Name, cfg.Arch, cfg.Pressure, cfg.DRatio)
}
