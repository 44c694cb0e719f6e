package machine

import (
	"bytes"
	"encoding/json"
	"testing"

	"pimdsm/internal/obs"
	"pimdsm/internal/workload"
)

// floorRun runs cfg with Profile and Audit on, with the resource calendars
// pruning below the scheduler floor or not, and returns the Result JSON and
// the profile's report and folded output.
func floorRun(t *testing.T, cfg Config, floor bool) [3][]byte {
	t.Helper()
	cfg.Profile = obs.NewProfile()
	cfg.Audit = true
	res, err := run(cfg, floor)
	if err != nil {
		t.Fatalf("%s/%s floor=%v: %v", cfg.Arch, cfg.App.Name, floor, err)
	}
	if res.AuditViolations != 0 {
		t.Fatalf("%s/%s floor=%v: %d audit violations: %v", cfg.Arch, cfg.App.Name, floor, res.AuditViolations, res.AuditSamples)
	}
	j, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var rep, folded bytes.Buffer
	cfg.Profile.WriteReport(&rep)
	if err := cfg.Profile.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	return [3][]byte{j, rep.Bytes(), folded.Bytes()}
}

// TestFloorPruningIdentity runs every app on all three machines once with
// the scheduler floor attached to every resource calendar (as Run does) and
// once detached, and requires byte-identical Result JSON, profile report
// and folded profile. The attached run also proves that no Acquire or Block
// reached below the floor: a floor-attached Resource panics on one.
func TestFloorPruningIdentity(t *testing.T) {
	names := [3]string{"Result JSON", "profile report", "folded profile"}
	for _, arch := range []Arch{AGG, NUMA, COMA} {
		apps := workload.Names()
		if arch == AGG {
			apps = append(apps, "dbase-opt") // D-node scans: Resource.Block
		}
		for _, app := range apps {
			cfg := smallCfg(arch, app)
			cfg.Threads = 8
			on, off := floorRun(t, cfg, true), floorRun(t, cfg, false)
			for i := range on {
				if !bytes.Equal(on[i], off[i]) {
					t.Errorf("%s/%s: %s differs with the floor attached (%d vs %d bytes)", arch, app, names[i], len(on[i]), len(off[i]))
				}
			}
		}
	}
}
