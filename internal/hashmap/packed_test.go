package hashmap

import (
	"math/rand"
	"testing"
	"unsafe"
)

// rangeSeq is the full Range sequence of a table, keys and values in order.
type rangeSeq []uint64

func seqOf(rng func(func(k, v uint64) bool)) rangeSeq {
	var s rangeSeq
	rng(func(k, v uint64) bool { s = append(s, k, v); return true })
	return s
}

// pair drives a packed Map and the three-array oracle in lockstep and
// fails on the first differing result.
type pair struct {
	t *testing.T
	m Map[uint64]
	o oracleMap[uint64]
}

func (p *pair) put(k, v uint64) { p.m.Put(k, v); p.o.Put(k, v) }

func (p *pair) get(k uint64) {
	p.t.Helper()
	v, ok := p.m.Get(k)
	ov, ook := p.o.Get(k)
	if v != ov || ok != ook {
		p.t.Fatalf("Get(%#x) = %d,%v; oracle %d,%v", k, v, ok, ov, ook)
	}
}

func (p *pair) del(k uint64) bool {
	p.t.Helper()
	got, want := p.m.Delete(k), p.o.Delete(k)
	if got != want {
		p.t.Fatalf("Delete(%#x) = %v; oracle %v", k, got, want)
	}
	return got
}

func (p *pair) reset() { p.m.Reset(); p.o.Reset() }

// check compares Len and the whole Range sequence, which pins every entry
// to the oracle's slot.
func (p *pair) check() {
	p.t.Helper()
	if p.m.Len() != p.o.Len() {
		p.t.Fatalf("Len = %d; oracle %d", p.m.Len(), p.o.Len())
	}
	got, want := seqOf(p.m.Range), seqOf(p.o.Range)
	if len(got) != len(want) {
		p.t.Fatalf("Range yields %d entries; oracle %d", len(got)/2, len(want)/2)
	}
	for i := range got {
		if got[i] != want[i] {
			p.t.Fatalf("Range differs at entry %d: %#x; oracle %#x", i/2, got[i], want[i])
		}
	}
	// Early stop must stop at the same entry.
	n := 0
	p.m.Range(func(uint64, uint64) bool { n++; return n < 3 })
	if want := min(3, p.o.Len()); n != want {
		p.t.Fatalf("Range visited %d entries after fn returned false; want %d", n, want)
	}
}

// wrapKeys returns n distinct nonzero keys whose home is the last slot of a
// table with 1<<bits slots, so their probe run wraps to slot 0 — the home of
// key 0.
func wrapKeys(n int, bits uint) []uint64 {
	var ks []uint64
	last := uint64(1)<<bits - 1
	for k := uint64(1); len(ks) < n; k++ {
		if (k*fibMul)>>(64-bits) == last {
			ks = append(ks, k)
		}
	}
	return ks
}

// TestMapMatchesOracle drives the packed Map and the three-array oracle with
// seeded random operation sequences over several key distributions and
// compares every return value, Len and the full Range sequence.
func TestMapMatchesOracle(t *testing.T) {
	wrap := wrapKeys(8, 4)
	for _, kd := range []struct {
		name string
		key  func(r *rand.Rand) uint64
	}{
		// Line-aligned keys in a small range force long probe runs.
		{"aligned", func(r *rand.Rand) uint64 { return uint64(r.Intn(300)) * 128 }},
		// The boundary keys mixed into a tiny key space.
		{"boundary", func(r *rand.Rand) uint64 {
			switch r.Intn(4) {
			case 0:
				return 0
			case 1:
				return ^uint64(0)
			}
			return uint64(r.Intn(24)) << 60
		}},
		// Keys homed on the last slot of a 16-slot table, plus key 0.
		{"wrap", func(r *rand.Rand) uint64 {
			if i := r.Intn(len(wrap) + 1); i < len(wrap) {
				return wrap[i]
			}
			return 0
		}},
		{"random", func(r *rand.Rand) uint64 { return r.Uint64() >> uint(r.Intn(64)) }},
	} {
		t.Run(kd.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				r := rand.New(rand.NewSource(seed))
				p := &pair{t: t}
				for op := 0; op < 20000; op++ {
					k := kd.key(r)
					switch x := r.Intn(100); {
					case x < 40:
						p.put(k, r.Uint64())
					case x < 70:
						p.get(k)
					case x < 99:
						p.del(k)
					default:
						p.reset()
					}
					if op%7 == 0 {
						p.check()
					}
				}
				p.check()
			}
		})
	}
}

// TestMapDeleteWrap: backward-shift deletion across the end of the table,
// with key 0 (homed on slot 0) inside the wrapped run, matches the oracle
// at every step.
func TestMapDeleteWrap(t *testing.T) {
	ks := wrapKeys(4, 4) // a 16-slot table holds up to 13 entries
	order := [][]uint64{
		{ks[0], ks[1], 0, ks[2], ks[3]},
		{0, ks[0], ks[1], ks[2]},
		{ks[0], 0, ^uint64(0), ks[1]},
	}
	for _, ins := range order {
		for del := range ins {
			p := &pair{t: t}
			for i, k := range ins {
				p.put(k, uint64(i+1))
			}
			if len(p.m.slots) != 16 {
				t.Fatalf("table has %d slots, want 16", len(p.m.slots))
			}
			p.check()
			p.del(ins[del])
			p.check()
			for _, k := range ins {
				p.get(k)
			}
			p.put(ins[del], 99)
			p.check()
		}
	}
}

// TestSlotSize: a pointer-valued slot is a key and a pointer with no padding
// (16 bytes on a 64-bit host, so a 64-byte cache line holds four).
func TestSlotSize(t *testing.T) {
	want := unsafe.Sizeof(uint64(0)) + unsafe.Sizeof((*int)(nil)) // no padding
	if n := unsafe.Sizeof(slot[*int]{}); n != want {
		t.Fatalf("slot[*int] is %d bytes, want %d", n, want)
	}
}

// TestMapZeroAlloc: lookups and overwrites of a present key never allocate.
func TestMapZeroAlloc(t *testing.T) {
	var m Map[*int]
	x := new(int)
	for i := uint64(0); i < 1000; i++ {
		m.Put(i*128, x)
	}
	var k uint64
	get := func() { m.Get(k * 128); k = (k + 7) % 1000 }
	put := func() { m.Put(k*128, x); k = (k + 7) % 1000 }
	if n := testing.AllocsPerRun(1000, get); n != 0 {
		t.Fatalf("Get allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(1000, put); n != 0 {
		t.Fatalf("Put to a present key allocates %v times per call", n)
	}
}

// BenchmarkMapGetCold looks keys up in a table of 2^21 entries (64 MB of
// slots), far larger than the host's L2 cache, so most probes miss in cache
// and the cost is the cache lines one lookup touches. The value is used, as
// every caller uses it, so its load cannot be dropped.
func BenchmarkMapGetCold(b *testing.B) {
	b.ReportAllocs()
	const n = 1 << 21
	var m Map[*int]
	x := new(int)
	for i := uint64(0); i < n; i++ {
		m.Put(i*128, x)
	}
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if v, _ := m.Get(uint64(i&(n-1)) * 128); v != nil {
			hits++
		}
	}
	if hits != b.N {
		b.Fatalf("%d hits in %d lookups", hits, b.N)
	}
}
