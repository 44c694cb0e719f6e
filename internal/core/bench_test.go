package core

import (
	"testing"

	"pimdsm/internal/sim"
)

// BenchmarkAccessLocalHit measures the engine's fast path: an access
// satisfied by the P-node's SRAM caches.
func BenchmarkAccessLocalHit(b *testing.B) {
	b.ReportAllocs()
	cfg := DefaultConfig(2, 2, 1<<20, 4096, 8192, 32768)
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	now, _ := m.Access(0, 0, 0x1000, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now, _ = m.Access(now, 0, 0x1000, false)
	}
}

// BenchmarkAccessRemote measures full 2-/3-hop software-handler
// transactions (the paper's Table 2 handlers as real Go code). The
// scheduler floor follows the clock, as in a machine.Run, so the resource
// calendars drop what lies behind it instead of growing with b.N.
func BenchmarkAccessRemote(b *testing.B) {
	b.ReportAllocs()
	cfg := DefaultConfig(4, 4, 1<<22, 1<<16, 8192, 32768)
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var now, floor sim.Time
	m.SetFloor(&floor)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		floor = now
		addr := uint64(i%(1<<14)) * 128
		now, _ = m.Access(now, i%4, addr, i%3 == 0)
	}
}

// BenchmarkDMemAllocRelease measures the Directory/Data/Pointer array
// management (§2.2.2): slot allocation through the FreeList and SharedList.
func BenchmarkDMemAllocRelease(b *testing.B) {
	b.ReportAllocs()
	d := MustNewDMem(1024, 1536, 128, 4096, 16)
	for p := uint64(0); p < 32; p++ {
		if err := d.MapPage(p * 4096); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i%1024) * 128
		e := d.Entry(addr)
		if e.LocalPtr == nilPtr {
			d.EnsureSlot(addr, e)
			e.State = DirShared
			e.Master = 1
			d.LinkShared(e)
		} else {
			d.UnlinkShared(e)
			d.ReleaseSlot(e)
			e.State = DirHome
			e.Master = HomeMaster
		}
	}
}
