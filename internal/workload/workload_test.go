package workload

import (
	"math"
	"testing"

	"pimdsm/internal/cpu"
)

func drain(t *testing.T, s cpu.Stream, limit int) []cpu.Op {
	t.Helper()
	var ops []cpu.Op
	for {
		op, ok := s.Next()
		if !ok {
			return ops
		}
		ops = append(ops, op)
		if len(ops) > limit {
			t.Fatalf("stream exceeded %d ops", limit)
		}
	}
}

func allApps(t *testing.T) []App {
	t.Helper()
	var apps []App
	for _, n := range Names() {
		a, err := New(Spec{Name: n, Scale: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, a)
	}
	a, err := New(Spec{Name: "dbase-opt", Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	return append(apps, a)
}

func TestUnknownAppRejected(t *testing.T) {
	if _, err := New(Spec{Name: "doom"}); err == nil {
		t.Fatal("unknown app accepted")
	}
	for _, scale := range []float64{-1, math.NaN(), math.Inf(1), MaxScale * 1.01, 1e9} {
		if _, err := New(Spec{Name: "radix", Scale: scale}); err == nil {
			t.Errorf("scale %v accepted", scale)
		}
	}
	for _, scale := range []float64{0, 0.01, 1, MaxScale} {
		if _, err := New(Spec{Name: "radix", Scale: scale}); err != nil {
			t.Errorf("scale %v rejected: %v", scale, err)
		}
	}
}

func TestStreamsAreDeterministic(t *testing.T) {
	for _, name := range []string{"fft", "radix", "barnes", "dbase"} {
		a1 := MustNew(Spec{Name: name, Scale: 0.05})
		a2 := MustNew(Spec{Name: name, Scale: 0.05})
		s1 := a1.Streams(4)
		s2 := a2.Streams(4)
		for tid := 0; tid < 4; tid++ {
			o1 := drain(t, s1[tid], 1<<22)
			o2 := drain(t, s2[tid], 1<<22)
			if len(o1) != len(o2) {
				t.Fatalf("%s thread %d: lengths %d vs %d", name, tid, len(o1), len(o2))
			}
			for i := range o1 {
				if o1[i] != o2[i] {
					t.Fatalf("%s thread %d op %d differs: %+v vs %+v", name, tid, i, o1[i], o2[i])
				}
			}
		}
	}
}

func TestAddressesWithinFootprint(t *testing.T) {
	for _, a := range allApps(t) {
		fp := a.Footprint()
		for tid, s := range a.Streams(3) {
			for _, op := range drain(t, s, 1<<22) {
				switch op.Kind {
				case cpu.OpLoad, cpu.OpStore, cpu.OpAcquire, cpu.OpRelease, cpu.OpScan:
					if op.Addr >= fp {
						t.Fatalf("%s thread %d: address %#x outside footprint %#x (op %+v)", a.Name(), tid, op.Addr, fp, op)
					}
				}
			}
		}
	}
}

func TestBarriersBalancedAcrossThreads(t *testing.T) {
	const threads = 3
	for _, a := range allApps(t) {
		var barCount [threads]int
		for tid, s := range a.Streams(threads) {
			for _, op := range drain(t, s, 1<<22) {
				if op.Kind == cpu.OpBarrier {
					if int(op.N) != threads {
						t.Fatalf("%s: barrier with %d participants, want %d", a.Name(), op.N, threads)
					}
					barCount[tid]++
				}
			}
		}
		for tid := 1; tid < threads; tid++ {
			if barCount[tid] != barCount[0] {
				t.Fatalf("%s: thread %d has %d barriers, thread 0 has %d — deadlock", a.Name(), tid, barCount[tid], barCount[0])
			}
		}
		if barCount[0] == 0 {
			t.Fatalf("%s: no barriers at all", a.Name())
		}
	}
}

func TestLocksBalanced(t *testing.T) {
	for _, a := range allApps(t) {
		for tid, s := range a.Streams(2) {
			held := map[uint64]int{}
			acquires := 0
			for _, op := range drain(t, s, 1<<22) {
				switch op.Kind {
				case cpu.OpAcquire:
					held[op.Addr]++
					acquires++
				case cpu.OpRelease:
					held[op.Addr]--
					if held[op.Addr] < 0 {
						t.Fatalf("%s thread %d: release before acquire on %#x", a.Name(), tid, op.Addr)
					}
				}
			}
			for addr, n := range held {
				if n != 0 {
					t.Fatalf("%s thread %d: lock %#x left held", a.Name(), tid, addr)
				}
			}
			_ = acquires
		}
	}
}

func TestMeasuredPhaseMarkerPresent(t *testing.T) {
	for _, a := range allApps(t) {
		for tid, s := range a.Streams(2) {
			found := false
			for _, op := range drain(t, s, 1<<22) {
				if op.Kind == cpu.OpPhase && op.N == PhaseMeasured {
					found = true
				}
			}
			if !found {
				t.Fatalf("%s thread %d: no PhaseMeasured marker", a.Name(), tid)
			}
		}
	}
}

func TestDbaseVariantsShareStructure(t *testing.T) {
	plain := MustNew(Spec{Name: "dbase", Scale: 0.05})
	opt := MustNew(Spec{Name: "dbase-opt", Scale: 0.05})
	if plain.Footprint() != opt.Footprint() {
		t.Fatalf("footprints differ: %d vs %d", plain.Footprint(), opt.Footprint())
	}
	// Opt replaces table traversal loads with scans.
	scans, loads := 0, 0
	for _, s := range opt.Streams(2) {
		for _, op := range drain(t, s, 1<<22) {
			switch op.Kind {
			case cpu.OpScan:
				scans++
			case cpu.OpLoad:
				loads++
			}
		}
	}
	if scans == 0 {
		t.Fatal("dbase-opt emits no scans")
	}
	plainLoads := 0
	for _, s := range plain.Streams(2) {
		for _, op := range drain(t, s, 1<<22) {
			if op.Kind == cpu.OpLoad {
				plainLoads++
			}
		}
	}
	if loads >= plainLoads {
		t.Fatalf("opt loads (%d) not fewer than plain loads (%d)", loads, plainLoads)
	}
}

func TestDbaseHasSecondPhase(t *testing.T) {
	a := MustNew(Spec{Name: "dbase", Scale: 0.05})
	for tid, s := range a.Streams(2) {
		found := false
		for _, op := range drain(t, s, 1<<22) {
			if op.Kind == cpu.OpPhase && op.N == PhaseSecond {
				found = true
			}
		}
		if !found {
			t.Fatalf("thread %d: no PhaseSecond marker", tid)
		}
	}
}

func TestScaleShrinksFootprint(t *testing.T) {
	big := MustNew(Spec{Name: "fft", Scale: 1})
	small := MustNew(Spec{Name: "fft", Scale: 0.1})
	if small.Footprint() >= big.Footprint() {
		t.Fatalf("scale 0.1 footprint %d not below scale 1 footprint %d", small.Footprint(), big.Footprint())
	}
}

func TestNonPowerOfTwoThreads(t *testing.T) {
	// The reconfiguration experiments run Dbase with 28 threads.
	a := MustNew(Spec{Name: "dbase", Scale: 0.05})
	streams := a.Streams(7)
	total := 0
	for _, s := range streams {
		total += len(drain(t, s, 1<<22))
	}
	if total == 0 {
		t.Fatal("no ops for 7 threads")
	}
}
