package machine

import (
	"pimdsm/internal/cpu"
	"pimdsm/internal/proto"
	"pimdsm/internal/sim"
	"pimdsm/internal/workload"
)

// pageTable models the OS's physical page-frame allocation: virtual pages
// are assigned pseudo-randomly scattered physical frames in first-touch
// order. Physically-indexed structures (SRAM caches, attraction memories,
// on-chip trackers) therefore do not suffer the systematic set aliasing that
// regularly-strided virtual layouts (e.g. several grids exactly 2 MB apart)
// would otherwise produce.
//
// Virtual pages are dense from 0 (workload.Layout hands out contiguous
// pages), so the table is a slice indexed by vpage, grown on first touch.
type pageTable struct {
	frames []uint32 // vpage -> 1 + physical frame; 0 means not yet touched
	next   uint64
}

const ptBits = 20 // physical space: 2^20 pages = 4 GB

func newPageTable() *pageTable {
	return &pageTable{}
}

// translate maps a virtual address to its physical address, allocating a
// frame on first touch. The frame sequence is a bijection of the allocation
// counter (odd multiplier modulo 2^ptBits), so distinct pages never collide.
func (pt *pageTable) translate(addr uint64) uint64 {
	vpage := addr / workload.PageBytes
	off := addr % workload.PageBytes
	if vpage >= uint64(len(pt.frames)) {
		pt.frames = append(pt.frames, make([]uint32, vpage+1-uint64(len(pt.frames)))...)
	}
	f := pt.frames[vpage]
	if f == 0 {
		// Bijective scramble of the allocation counter: odd multiply mod
		// 2^ptBits, then bit reversal. The reversal matters: without it the
		// low frame bits (which select cache sets) would retain the
		// counter's low-bit structure, and 32 threads first-touching in an
		// interleaved order would land all of one thread's pages in the
		// same set block.
		f = uint32(bitrev(pt.next*2654435761&(1<<ptBits-1), ptBits)) + 1
		pt.next++
		pt.frames[vpage] = f
	}
	return uint64(f-1)*workload.PageBytes + off
}

// bitrev reverses the low n bits of v.
func bitrev(v uint64, n int) uint64 {
	var r uint64
	for i := 0; i < n; i++ {
		r = r<<1 | (v>>i)&1
	}
	return r
}

// translatedMem wraps an engine with virtual-to-physical translation.
type translatedMem struct {
	eng  engine
	scan cpu.Scanner
	pt   *pageTable
}

func (t *translatedMem) Access(now sim.Time, p int, addr uint64, write bool) (sim.Time, proto.LatClass) {
	return t.eng.Access(now, p, t.pt.translate(addr), write)
}

// Scan splits a virtually-contiguous scan at page boundaries, since the
// physical frames are scattered; each piece runs at its page's home D-node.
func (t *translatedMem) Scan(now sim.Time, p int, addr uint64, lines int, selBytes uint64) sim.Time {
	done := now
	remaining := lines
	cur := addr
	for remaining > 0 {
		page := cur &^ (workload.PageBytes - 1)
		inPage := int((page + workload.PageBytes - cur) / workload.LineBytes)
		if inPage > remaining {
			inPage = remaining
		}
		sel := selBytes * uint64(inPage) / uint64(lines)
		if d := t.scan.Scan(now, p, t.pt.translate(cur), inPage, sel); d > done {
			done = d
		}
		cur += uint64(inPage) * workload.LineBytes
		remaining -= inPage
	}
	return done
}
