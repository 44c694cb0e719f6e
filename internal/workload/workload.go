// Package workload provides synthetic versions of the seven applications in
// the paper's evaluation (Table 3): FFT, Radix, Ocean and Barnes from
// SPLASH-2; Swim and Tomcatv from SPEC95; and Dbase (TPC-D query 3).
//
// The real binaries were run under a MINT-based execution-driven simulator;
// here each application is a deterministic generator of per-thread operation
// streams that reproduces its documented phase structure, sharing pattern
// and locality — the properties that differentiate the architectures under
// study. Problem sizes follow Table 3, scaled by a Spec.Scale factor so a
// full figure regeneration finishes in minutes (scaling preserves the
// footprint/DRAM ratio, i.e. memory pressure, which is the evaluation's
// controlled variable).
//
// Every application begins with a parallel initialization phase in which
// each thread writes its partition of the data (the standard SPLASH first-
// touch warm-up); the measured region starts at the OpPhase marker
// PhaseMeasured.
package workload

import (
	"fmt"
	"iter"

	"pimdsm/internal/cpu"
)

// Phase numbers every app uses.
const (
	// PhaseMeasured marks the end of warm-up initialization: measurement
	// (and Figure 6/7 accounting) starts here.
	PhaseMeasured = 1
	// PhaseSecond marks the second application phase where one exists
	// (Dbase: hash -> join), used by the reconfiguration experiments.
	PhaseSecond = 2
)

// App is one benchmark application.
type App interface {
	// Name returns the Table 3 name.
	Name() string
	// Footprint returns the shared-data footprint in bytes; memory
	// pressure = Footprint / total machine DRAM.
	Footprint() uint64
	// Caches returns the Table 3 L1 and L2 capacities in bytes.
	Caches() (l1, l2 uint64)
	// Streams returns one deterministic op stream per thread.
	Streams(threads int) []cpu.Stream
}

// Spec selects and sizes an application.
type Spec struct {
	Name string
	// Scale multiplies the default (Table 3-derived) problem size.
	// 1.0 is the calibrated default used by the figure harness.
	Scale float64
}

// MaxScale bounds Spec.Scale. The figures run at scale 1 or below, and swim
// and tomcatv stop growing at 4. The bound keeps every scaled element count
// far inside the uint64 range: at huge scales the float-to-integer
// conversions overflow, and a footprint would wrap to a small number while
// the streams still walk the unwrapped sizes. What a legal scale may size is
// bounded by machine.MaxDRAMBytes.
const MaxScale = 64

// New builds the named application. Valid names are in Names.
func New(spec Spec) (App, error) {
	s := spec.Scale
	if s == 0 {
		s = 1.0
	}
	if !(s > 0 && s <= MaxScale) {
		return nil, fmt.Errorf("workload: scale %v outside (0,%d]", s, MaxScale)
	}
	switch spec.Name {
	case "fft":
		return newFFT(s), nil
	case "radix":
		return newRadix(s), nil
	case "ocean":
		return newOcean(s), nil
	case "barnes":
		return newBarnes(s), nil
	case "swim":
		return newSwim(s), nil
	case "tomcatv":
		return newTomcatv(s), nil
	case "dbase":
		return newDbase(s, false), nil
	case "dbase-opt":
		// Computation-in-memory variant (§2.4): D-nodes traverse the tables.
		return newDbase(s, true), nil
	}
	return nil, fmt.Errorf("workload: unknown application %q", spec.Name)
}

// Names lists the available applications in the paper's order.
func Names() []string {
	return []string{"fft", "radix", "ocean", "barnes", "swim", "tomcatv", "dbase"}
}

// MustNew is New, panicking on error.
func MustNew(spec Spec) App {
	a, err := New(spec)
	if err != nil {
		panic(err)
	}
	return a
}

// --- stream plumbing ---

type stopGen struct{}

// batchOps is how many ops cross the generator coroutine boundary at once.
// iter.Pull costs a goroutine switch per pull; batching amortizes it to a
// switch per batchOps ops, which takes the stream plumbing out of the
// simulator's profile.
const batchOps = 256

type pullStream struct {
	buf  []cpu.Op
	i    int
	next func() ([]cpu.Op, bool)
}

func (p *pullStream) Next() (cpu.Op, bool) {
	if p.i >= len(p.buf) {
		buf, ok := p.next()
		if !ok {
			return cpu.Op{}, false
		}
		p.buf, p.i = buf, 0
	}
	op := p.buf[p.i]
	p.i++
	return op, true
}

// newStream converts a generator function into a lazily-pulled cpu.Stream.
// The generator writes ops through the emitter; if the consumer abandons the
// stream, emission panics internally with stopGen and unwinds cleanly.
//
// The same batch buffer is yielded every time: the generator only resumes
// when the consumer pulls again, i.e. after the previous batch is fully
// drained, so refilling in place is safe.
func newStream(gen func(e *E)) cpu.Stream {
	seq := iter.Seq[[]cpu.Op](func(yield func([]cpu.Op) bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(stopGen); !ok {
					panic(r)
				}
			}
		}()
		e := &E{yield: yield, buf: make([]cpu.Op, 0, batchOps)}
		gen(e)
		if len(e.buf) > 0 {
			yield(e.buf)
		}
	})
	next, _ := iter.Pull(seq)
	return &pullStream{next: next}
}

// E emits operations from a workload generator.
type E struct {
	yield func([]cpu.Op) bool
	buf   []cpu.Op
}

func (e *E) emit(op cpu.Op) {
	e.buf = append(e.buf, op)
	if len(e.buf) == batchOps {
		if !e.yield(e.buf) {
			panic(stopGen{})
		}
		e.buf = e.buf[:0]
	}
}

// Load emits a blocking (dependent) load.
func (e *E) Load(addr uint64) { e.emit(cpu.Op{Kind: cpu.OpLoad, Addr: addr}) }

// LoadI emits an independent (overlappable) load.
func (e *E) LoadI(addr uint64) { e.emit(cpu.Op{Kind: cpu.OpLoad, Addr: addr, Indep: true}) }

// Store emits a buffered store.
func (e *E) Store(addr uint64) { e.emit(cpu.Op{Kind: cpu.OpStore, Addr: addr}) }

// Compute emits n cycles of instruction execution.
func (e *E) Compute(n uint32) {
	if n > 0 {
		e.emit(cpu.Op{Kind: cpu.OpCompute, N: n})
	}
}

// Barrier emits a barrier among parts threads.
func (e *E) Barrier(parts int) { e.emit(cpu.Op{Kind: cpu.OpBarrier, N: uint32(parts)}) }

// Acquire emits a lock acquire on addr.
func (e *E) Acquire(addr uint64) { e.emit(cpu.Op{Kind: cpu.OpAcquire, Addr: addr}) }

// Release emits the matching release.
func (e *E) Release(addr uint64) { e.emit(cpu.Op{Kind: cpu.OpRelease, Addr: addr}) }

// Phase emits a phase marker.
func (e *E) Phase(n int) { e.emit(cpu.Op{Kind: cpu.OpPhase, N: uint32(n)}) }

// Scan emits a computation-in-memory scan of lines memory lines at addr
// returning selBytes of selected records.
func (e *E) Scan(addr uint64, lines int, selBytes uint32) {
	e.emit(cpu.Op{Kind: cpu.OpScan, Addr: addr, N: uint32(lines), SelBytes: selBytes})
}

// --- address-space layout ---

const (
	// LineBytes is the machine's memory line size (Table 1).
	LineBytes = 128
	// PageBytes is the OS page size.
	PageBytes = 4096
)

// Layout hands out page-aligned regions of the shared address space.
type Layout struct{ next uint64 }

// Region reserves bytes (rounded up to whole pages) and returns its base.
func (l *Layout) Region(bytes uint64) uint64 {
	base := l.next
	pages := (bytes + PageBytes - 1) / PageBytes
	l.next += pages * PageBytes
	return base
}

// Size returns the total bytes reserved so far.
func (l *Layout) Size() uint64 { return l.next }

// initRegion first-touch writes a thread's block partition of a region:
// pages end up homed at their compute owner (the placement-friendly case).
func initRegion(e *E, base, lines uint64, tid, threads int) {
	lo, hi := lineRange(lines, tid, threads)
	for l := lo; l < hi; l++ {
		e.Store(base + l*LineBytes)
		e.Compute(2)
	}
}

// initRegionCyclic first-touch writes a region page-cyclically: page k is
// touched by thread k mod threads, so first-touch placement spreads the
// region round robin over the machine. This models SPLASH-2's shared global
// structures, whose unoptimized placement is what hurts the paper's simple
// CC-NUMA: a thread's compute partition then spans pages homed (almost)
// everywhere, while AGG and COMA simply attract the lines into the local
// memory on first use.
func initRegionCyclic(e *E, base, lines uint64, tid, threads int) {
	linesPerPage := uint64(PageBytes / LineBytes)
	pages := (lines + linesPerPage - 1) / linesPerPage
	for p := uint64(tid); p < pages; p += uint64(threads) {
		for l := p * linesPerPage; l < (p+1)*linesPerPage && l < lines; l++ {
			e.Store(base + l*LineBytes)
		}
		e.Compute(8)
	}
}

// scaledCaches shrinks an application's Table 3 cache sizes when the
// problem is scaled below its calibrated footprint, preserving the paper's
// fit relations (the local memory at 75% pressure must stay larger than the
// L2, and the L2 smaller than a thread's working set).
func scaledCaches(fp, calibratedFP, l1, l2 uint64) (uint64, uint64) {
	for fp < calibratedFP && l2 > 4096 {
		calibratedFP /= 2
		l1 /= 2
		l2 /= 2
	}
	if l1 < 1024 {
		l1 = 1024
	}
	return l1, l2
}

// roundPow2 returns the largest power of two ≤ v (v ≥ 1).
func roundPow2(v uint64) uint64 {
	p := uint64(1)
	for p*2 <= v {
		p *= 2
	}
	return p
}

// scaleCount scales a count, keeping it a positive multiple of quantum.
func scaleCount(base uint64, scale float64, quantum uint64) uint64 {
	v := uint64(float64(base) * scale)
	if v < quantum {
		return quantum
	}
	return v / quantum * quantum
}
