package cache

import (
	"fmt"
	"math"
	"math/bits"
)

// LocalMemory models the tagged local DRAM of a PIM node (§2.1.1): a
// set-associative cache of memory lines whose capacity is split between
// on-chip and off-chip DRAM. On- and off-chip portions hold exclusive data;
// a reference to a line residing off chip moves it on chip, displacing
// another line off chip at line granularity (§2, node design).
//
// Timing matters only through which portion a hit is served from: the caller
// charges the on-chip or off-chip round-trip latency based on the reported
// placement. Placement is tracked per frame, with a fixed number of on-chip
// frames per set (the paper tunes the on-chip fraction per application).
type LocalMemory struct {
	lineBytes uint64
	lineShift uint
	sets      uint64
	assoc     int
	onWays    int // frames per set resident in on-chip DRAM
	frames    []frame
	stamp     uint64
}

// NewLocal builds a tagged local memory of totalBytes with the given line
// size and associativity; onFraction is the fraction of capacity on chip
// (rounded to whole ways per set, clamped to at least one way when positive).
func NewLocal(totalBytes, lineBytes uint64, assoc int, onFraction float64) (*LocalMemory, error) {
	if assoc <= 0 {
		return nil, fmt.Errorf("cache: associativity %d must be positive", assoc)
	}
	if err := checkLine(lineBytes); err != nil {
		return nil, err
	}
	if onFraction < 0 || onFraction > 1 {
		return nil, fmt.Errorf("cache: on-chip fraction %v out of [0,1]", onFraction)
	}
	lines := totalBytes / lineBytes
	if lines == 0 || lines%uint64(assoc) != 0 {
		return nil, fmt.Errorf("cache: capacity %dB is not a multiple of %d ways of %dB lines", totalBytes, assoc, lineBytes)
	}
	// Unlike the SRAM caches, the DRAM tag array may have any set count
	// (indexing is a modulo): memory-pressure experiments need capacities
	// that are not powers of two.
	sets := lines / uint64(assoc)
	onWays := int(math.Round(onFraction * float64(assoc)))
	if onFraction > 0 && onWays == 0 {
		onWays = 1
	}
	m := &LocalMemory{
		lineBytes: lineBytes,
		lineShift: uint(bits.TrailingZeros64(lineBytes)),
		sets:      sets,
		assoc:     assoc,
		onWays:    onWays,
		frames:    make([]frame, lines),
	}
	// The first onWays frames of each set start as the on-chip frames.
	for s := uint64(0); s < sets; s++ {
		for w := 0; w < onWays; w++ {
			m.frames[s*uint64(assoc)+uint64(w)].tagbits = onChipBit
		}
	}
	return m, nil
}

// MustNewLocal is NewLocal, panicking on error.
func MustNewLocal(totalBytes, lineBytes uint64, assoc int, onFraction float64) *LocalMemory {
	m, err := NewLocal(totalBytes, lineBytes, assoc, onFraction)
	if err != nil {
		panic(err)
	}
	return m
}

// LineBytes returns the line size in bytes.
func (m *LocalMemory) LineBytes() uint64 { return m.lineBytes }

// Lines returns the total number of line frames (on- plus off-chip).
func (m *LocalMemory) Lines() uint64 { return m.sets * uint64(m.assoc) }

// OnChipLines returns the number of on-chip frames.
func (m *LocalMemory) OnChipLines() uint64 { return m.sets * uint64(m.onWays) }

// Align returns addr rounded down to its line boundary.
func (m *LocalMemory) Align(addr uint64) uint64 { return addr &^ (m.lineBytes - 1) }

func (m *LocalMemory) set(addr uint64) []frame {
	s := (addr >> m.lineShift) % m.sets
	return m.frames[s*uint64(m.assoc) : (s+1)*uint64(m.assoc)]
}

func (m *LocalMemory) find(addr uint64) *frame {
	tag := m.Align(addr)
	set := m.set(addr)
	for i := range set {
		if set[i].holds(tag) {
			return &set[i]
		}
	}
	return nil
}

// promote moves frame f of set to on-chip DRAM, displacing the LRU on-chip
// frame of the same set off chip (an on/off swap at line grain).
func (m *LocalMemory) promote(set []frame, f *frame) {
	if f.onChip() || m.onWays == 0 {
		return
	}
	var lruOn *frame
	for i := range set {
		if set[i].onChip() && (lruOn == nil || set[i].lru < lruOn.lru) {
			lruOn = &set[i]
		}
	}
	if lruOn == nil { // no on-chip frame in this set (onWays per-set exhausted elsewhere)
		return
	}
	lruOn.tagbits &^= onChipBit
	f.tagbits |= onChipBit
}

// Access looks up addr. On a hit it marks the line most recently used,
// reports whether it was served on chip, and then (per the paper) migrates
// an off-chip line on chip.
func (m *LocalMemory) Access(addr uint64) (st State, hit bool, onChip bool) {
	f := m.find(addr)
	if f == nil {
		return Invalid, false, false
	}
	m.stamp++
	f.lru = m.stamp
	served := f.onChip()
	if !served {
		m.promote(m.set(addr), f)
	}
	return f.state(), true, served
}

// Lookup returns the state and placement of a line without side effects.
func (m *LocalMemory) Lookup(addr uint64) (st State, hit bool, onChip bool) {
	if f := m.find(addr); f != nil {
		return f.state(), true, f.onChip()
	}
	return Invalid, false, false
}

// SetState updates the state of a present line, reporting presence.
func (m *LocalMemory) SetState(addr uint64, s State) bool {
	f := m.find(addr)
	if f == nil {
		return false
	}
	f.setState(s)
	return true
}

// Invalidate removes the line containing addr, returning its prior state.
func (m *LocalMemory) Invalidate(addr uint64) State {
	f := m.find(addr)
	if f == nil {
		return Invalid
	}
	s := f.state()
	f.setState(Invalid)
	return s
}

// Insert places a newly fetched line (always on chip: it was just
// referenced), evicting a victim from the set if needed. Victim preference:
// Invalid frames, then lowest rank (nil rank treats all states equally),
// ties broken by LRU. Re-inserting a present line refreshes state and LRU.
func (m *LocalMemory) Insert(addr uint64, s State, rank func(State) int) Victim {
	if s == Invalid {
		panic("cache: Insert with Invalid state")
	}
	set := m.set(addr)
	if f := m.find(addr); f != nil {
		m.stamp++
		f.lru = m.stamp
		f.setState(s)
		if !f.onChip() {
			m.promote(set, f)
		}
		return Victim{}
	}
	best := -1
	for i := range set {
		if !set[i].valid() {
			best = i
			break
		}
		if best == -1 {
			best = i
			continue
		}
		if rank != nil {
			ri, rb := rank(set[i].state()), rank(set[best].state())
			if ri != rb {
				if ri < rb {
					best = i
				}
				continue
			}
		}
		if set[i].lru < set[best].lru {
			best = i
		}
	}
	v := Victim{}
	if set[best].valid() {
		v = Victim{Addr: set[best].tag(), State: set[best].state()}
	}
	m.stamp++
	wasOn := set[best].tagbits & onChipBit
	set[best] = frame{tagbits: m.Align(addr) | uint64(s) | wasOn, lru: m.stamp}
	if wasOn == 0 {
		m.promote(set, &set[best])
	}
	return v
}

// ProbeVictim returns what Insert(addr, ..., rank) would displace, without
// modifying the memory: the zero Victim if the line is already present or a
// free frame exists, else the would-be victim. COMA injection uses this to
// decide whether placing a line here would displace another master.
func (m *LocalMemory) ProbeVictim(addr uint64, rank func(State) int) Victim {
	if m.find(addr) != nil {
		return Victim{}
	}
	set := m.set(addr)
	best := -1
	for i := range set {
		if !set[i].valid() {
			return Victim{}
		}
		if best == -1 {
			best = i
			continue
		}
		if rank != nil {
			ri, rb := rank(set[i].state()), rank(set[best].state())
			if ri != rb {
				if ri < rb {
					best = i
				}
				continue
			}
		}
		if set[i].lru < set[best].lru {
			best = i
		}
	}
	return Victim{Addr: set[best].tag(), State: set[best].state()}
}

// ForEach calls fn for every valid line in deterministic frame order.
func (m *LocalMemory) ForEach(fn func(addr uint64, s State, onChip bool)) {
	for i := range m.frames {
		if f := &m.frames[i]; f.valid() {
			fn(f.tag(), f.state(), f.onChip())
		}
	}
}

// Count returns the number of valid lines.
func (m *LocalMemory) Count() int {
	n := 0
	for i := range m.frames {
		if m.frames[i].valid() {
			n++
		}
	}
	return n
}

// Flush removes all lines, invoking fn (if non-nil) for each valid one. Used
// when a P-node is reconfigured into a D-node (§2.3: dirty and shared-master
// lines are written back to their homes).
func (m *LocalMemory) Flush(fn func(addr uint64, s State)) {
	for i := range m.frames {
		if f := &m.frames[i]; f.valid() {
			if fn != nil {
				fn(f.tag(), f.state())
			}
			f.setState(Invalid)
		}
	}
}
