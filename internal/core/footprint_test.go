package core_test

import (
	"runtime"
	"testing"

	"pimdsm/internal/machine"
	"pimdsm/internal/workload"
)

// TestAGGRunFootprint bounds the bytes one AGG run allocates where most
// D-node Data slots are never used: swim at scale 0.3, 32 threads and 25%
// pressure ends with 57,600 of its 65,536 slots free. An eager Pointer
// array of 24-byte entries and 40-byte directory entries allocated 6.0 MB
// (6.6 MB under -race); lazy 16-byte Pointer entries and 28-byte directory
// entries allocate 4.3 MB (4.8 MB under -race).
func TestAGGRunFootprint(t *testing.T) {
	const maxBytes = 5_300_000
	cfg := machine.Config{
		Arch:     machine.AGG,
		App:      workload.Spec{Name: "swim", Scale: 0.3},
		Threads:  32,
		Pressure: 0.25,
		DRatio:   1,
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := machine.Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if c := res.Census; c.FreeSlots != 57600 || c.SlotCap != 65536 {
		t.Fatalf("census %d free of %d slots, want 57600 of 65536", c.FreeSlots, c.SlotCap)
	}
	n := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d B allocated by one run", n)
	if n > maxBytes {
		t.Fatalf("one AGG swim run at 25%% pressure allocates %d B, want <= %d", n, maxBytes)
	}
}
