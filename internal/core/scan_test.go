package core

import (
	"testing"

	"pimdsm/internal/cache"
	"pimdsm/internal/sim"
)

func TestScanOfHomeResidentData(t *testing.T) {
	m := testMachine(t)
	// Materialize lines at the home: write then write back via recall-free
	// route — simplest is to read them (home keeps copies on first read).
	now := sim.Time(0)
	for l := uint64(0); l < 8; l++ {
		now, _ = m.Access(now, 1, 0x8000+l*128, false)
	}
	before := m.Stats().Recalls
	done := m.Scan(now, 0, 0x8000, 8, 512)
	if done <= now {
		t.Fatal("scan took no time")
	}
	if m.Stats().Scans != 1 || m.Stats().ScanLines != 8 {
		t.Fatalf("scan counters: %d scans, %d lines", m.Stats().Scans, m.Stats().ScanLines)
	}
	// Shared lines with home copies need no recalls.
	if m.Stats().Recalls != before {
		t.Fatalf("scan recalled home-resident lines (%d recalls)", m.Stats().Recalls-before)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestScanRecallsDirtyLinesByDowngrade(t *testing.T) {
	m := testMachine(t)
	now := sim.Time(0)
	for l := uint64(0); l < 4; l++ {
		now, _ = m.Access(now, 1, 0x9000+l*128, true) // dirty at P1
	}
	done := m.Scan(now, 0, 0x9000, 4, 256)
	if m.Stats().Recalls != 4 {
		t.Fatalf("recalls = %d, want 4", m.Stats().Recalls)
	}
	// The former owner keeps a droppable master copy (downgrade, not
	// invalidation): "data that is guaranteed not to leave memory".
	st, hit, _ := m.PMemOf(1).Lookup(0x9000)
	if !hit || st != cache.SharedMaster {
		t.Fatalf("owner state after scan = %v/%v, want SharedMaster", st, hit)
	}
	d := homeOf(m, m.PageOf(0x9000))
	e := m.DMemOf(d).Entry(0x9000)
	if e.State != DirShared || !e.HasCopy() {
		t.Fatalf("directory after scan = %+v", e)
	}
	_ = done
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestScanSpansPages(t *testing.T) {
	cfg := DefaultConfig(2, 2, 4096, 64, 1024, 4096)
	cfg.PageBytes = 512 // 4 lines per page
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := m.Scan(0, 0, 0, 10, 600) // 2.5 pages
	if done == 0 {
		t.Fatal("scan took no time")
	}
	if m.Stats().ScanLines != 10 {
		t.Fatalf("scanned %d lines, want 10", m.Stats().ScanLines)
	}
	// Round-robin homing: the pages went to different D-nodes.
	h0 := homeOf(m, 0)
	h512 := homeOf(m, 512)
	if h0 == h512 {
		t.Fatal("consecutive pages homed at the same D-node")
	}
}

func TestScanZeroLines(t *testing.T) {
	m := testMachine(t)
	if done := m.Scan(100, 0, 0x1000, 0, 0); done != 100 {
		t.Fatalf("zero-line scan advanced time to %d", done)
	}
}
