package cache

import (
	"fmt"
	"math"
	"math/bits"
)

// The SetAssoc and LocalMemory layouts from before their frames were packed
// into 16 bytes: a 24-byte frame and a 32-byte lframe with the state and the
// on-chip placement in fields of their own. They are kept verbatim, renamed,
// as the references the packed structures must match operation for
// operation.

type oracleFrame struct {
	tag   uint64 // line-aligned address
	state State
	lru   uint64 // global LRU stamp; larger = more recent
}

// oracleSetAssoc is a set-associative tag/state array with true-LRU replacement.
type oracleSetAssoc struct {
	lineBytes uint64
	lineShift uint
	sets      uint64
	setMask   uint64
	assoc     int
	frames    []oracleFrame // sets × assoc
	stamp     uint64
}

// New builds a cache of totalBytes capacity with the given line size and
// associativity. Line size and the resulting set count must be powers of two;
// assoc may be any positive value.
func newOracle(totalBytes, lineBytes uint64, assoc int) (*oracleSetAssoc, error) {
	if assoc <= 0 {
		return nil, fmt.Errorf("cache: associativity %d must be positive", assoc)
	}
	if lineBytes == 0 || lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("cache: line size %d must be a power of two", lineBytes)
	}
	lines := totalBytes / lineBytes
	if lines == 0 || lines%uint64(assoc) != 0 {
		return nil, fmt.Errorf("cache: capacity %dB is not a multiple of %d ways of %dB lines", totalBytes, assoc, lineBytes)
	}
	sets := lines / uint64(assoc)
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d must be a power of two", sets)
	}
	return &oracleSetAssoc{
		lineBytes: lineBytes,
		lineShift: uint(bits.TrailingZeros64(lineBytes)),
		sets:      sets,
		setMask:   sets - 1,
		assoc:     assoc,
		frames:    make([]oracleFrame, lines),
	}, nil
}

// LineBytes returns the line size in bytes.
func (c *oracleSetAssoc) LineBytes() uint64 { return c.lineBytes }

// Lines returns the total number of line frames.
func (c *oracleSetAssoc) Lines() uint64 { return c.sets * uint64(c.assoc) }

// Assoc returns the associativity.
func (c *oracleSetAssoc) Assoc() int { return c.assoc }

// Align returns addr rounded down to its line boundary.
func (c *oracleSetAssoc) Align(addr uint64) uint64 { return addr &^ (c.lineBytes - 1) }

func (c *oracleSetAssoc) set(addr uint64) []oracleFrame {
	s := (addr >> c.lineShift) & c.setMask
	return c.frames[s*uint64(c.assoc) : (s+1)*uint64(c.assoc)]
}

func (c *oracleSetAssoc) find(addr uint64) *oracleFrame {
	tag := c.Align(addr)
	set := c.set(addr)
	for i := range set {
		if set[i].state != Invalid && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

// Lookup returns the state of the line containing addr without updating LRU.
func (c *oracleSetAssoc) Lookup(addr uint64) (State, bool) {
	if f := c.find(addr); f != nil {
		return f.state, true
	}
	return Invalid, false
}

// Access returns the state of the line containing addr, marking it most
// recently used on a hit.
func (c *oracleSetAssoc) Access(addr uint64) (State, bool) {
	if f := c.find(addr); f != nil {
		c.stamp++
		f.lru = c.stamp
		return f.state, true
	}
	return Invalid, false
}

// SetState updates the state of a present line. It reports whether the line
// was present. Setting Invalid removes the line.
func (c *oracleSetAssoc) SetState(addr uint64, s State) bool {
	f := c.find(addr)
	if f == nil {
		return false
	}
	f.state = s
	return true
}

// Invalidate removes the line containing addr, returning its prior state.
func (c *oracleSetAssoc) Invalidate(addr uint64) State {
	f := c.find(addr)
	if f == nil {
		return Invalid
	}
	s := f.state
	f.state = Invalid
	return s
}

// Insert places the line containing addr with the given state, evicting the
// least attractive oracleFrame in its set if full. Victim preference: Invalid
// frames first, then lowest rank as reported by rank (nil means all equal),
// ties broken by LRU. If the line is already present its state is updated
// in place and no victim results.
func (c *oracleSetAssoc) Insert(addr uint64, s State, rank func(State) int) Victim {
	if s == Invalid {
		panic("cache: Insert with Invalid state")
	}
	if f := c.find(addr); f != nil {
		c.stamp++
		f.lru = c.stamp
		f.state = s
		return Victim{}
	}
	set := c.set(addr)
	best := -1
	for i := range set {
		if set[i].state == Invalid {
			best = i
			break
		}
		if best == -1 {
			best = i
			continue
		}
		if rank != nil {
			ri, rb := rank(set[i].state), rank(set[best].state)
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
	if set[best].state != Invalid {
		v = Victim{Addr: set[best].tag, State: set[best].state}
	}
	c.stamp++
	set[best] = oracleFrame{tag: c.Align(addr), state: s, lru: c.stamp}
	return v
}

// ForEach calls fn for every valid line (address, state). Iteration order is
// oracleFrame order (deterministic).
func (c *oracleSetAssoc) ForEach(fn func(addr uint64, s State)) {
	for i := range c.frames {
		if c.frames[i].state != Invalid {
			fn(c.frames[i].tag, c.frames[i].state)
		}
	}
}

// Count returns the number of valid lines.
func (c *oracleSetAssoc) Count() int {
	n := 0
	for i := range c.frames {
		if c.frames[i].state != Invalid {
			n++
		}
	}
	return n
}

// Flush removes all lines, invoking fn (if non-nil) for each valid one.
func (c *oracleSetAssoc) Flush(fn func(addr uint64, s State)) {
	for i := range c.frames {
		if c.frames[i].state != Invalid {
			if fn != nil {
				fn(c.frames[i].tag, c.frames[i].state)
			}
			c.frames[i].state = Invalid
		}
	}
}

// oracleLocal models the tagged local DRAM of a PIM node (§2.1.1): a
// set-associative cache of memory lines whose capacity is split between
// on-chip and off-chip DRAM. On- and off-chip portions hold exclusive data;
// a reference to a line residing off chip moves it on chip, displacing
// another line off chip at line granularity (§2, node design).
//
// Timing matters only through which portion a hit is served from: the caller
// charges the on-chip or off-chip round-trip latency based on the reported
// placement. Placement is tracked per frame, with a fixed number of on-chip
// frames per set (the paper tunes the on-chip fraction per application).
type oracleLocal struct {
	lineBytes uint64
	lineShift uint
	sets      uint64
	assoc     int
	onWays    int // frames per set resident in on-chip DRAM
	frames    []oracleLFrame
	stamp     uint64
}

type oracleLFrame struct {
	tag    uint64
	state  State
	lru    uint64
	onChip bool
}

// NewLocal builds a tagged local memory of totalBytes with the given line
// size and associativity; onFraction is the fraction of capacity on chip
// (rounded to whole ways per set, clamped to at least one way when positive).
func newOracleLocal(totalBytes, lineBytes uint64, assoc int, onFraction float64) (*oracleLocal, error) {
	if assoc <= 0 {
		return nil, fmt.Errorf("cache: associativity %d must be positive", assoc)
	}
	if lineBytes == 0 || lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("cache: line size %d must be a power of two", lineBytes)
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
	m := &oracleLocal{
		lineBytes: lineBytes,
		lineShift: uint(bits.TrailingZeros64(lineBytes)),
		sets:      sets,
		assoc:     assoc,
		onWays:    onWays,
		frames:    make([]oracleLFrame, lines),
	}
	// The first onWays frames of each set start as the on-chip frames.
	for s := uint64(0); s < sets; s++ {
		for w := 0; w < onWays; w++ {
			m.frames[s*uint64(assoc)+uint64(w)].onChip = true
		}
	}
	return m, nil
}

// LineBytes returns the line size in bytes.
func (m *oracleLocal) LineBytes() uint64 { return m.lineBytes }

// Lines returns the total number of line frames (on- plus off-chip).
func (m *oracleLocal) Lines() uint64 { return m.sets * uint64(m.assoc) }

// OnChipLines returns the number of on-chip frames.
func (m *oracleLocal) OnChipLines() uint64 { return m.sets * uint64(m.onWays) }

// Align returns addr rounded down to its line boundary.
func (m *oracleLocal) Align(addr uint64) uint64 { return addr &^ (m.lineBytes - 1) }

func (m *oracleLocal) set(addr uint64) []oracleLFrame {
	s := (addr >> m.lineShift) % m.sets
	return m.frames[s*uint64(m.assoc) : (s+1)*uint64(m.assoc)]
}

func (m *oracleLocal) find(addr uint64) *oracleLFrame {
	tag := m.Align(addr)
	set := m.set(addr)
	for i := range set {
		if set[i].state != Invalid && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

// promote moves frame f of set to on-chip DRAM, displacing the LRU on-chip
// frame of the same set off chip (an on/off swap at line grain).
func (m *oracleLocal) promote(set []oracleLFrame, f *oracleLFrame) {
	if f.onChip || m.onWays == 0 {
		return
	}
	var lruOn *oracleLFrame
	for i := range set {
		if set[i].onChip && (lruOn == nil || set[i].lru < lruOn.lru) {
			lruOn = &set[i]
		}
	}
	if lruOn == nil { // no on-chip frame in this set (onWays per-set exhausted elsewhere)
		return
	}
	lruOn.onChip = false
	f.onChip = true
}

// Access looks up addr. On a hit it marks the line most recently used,
// reports whether it was served on chip, and then (per the paper) migrates
// an off-chip line on chip.
func (m *oracleLocal) Access(addr uint64) (st State, hit bool, onChip bool) {
	f := m.find(addr)
	if f == nil {
		return Invalid, false, false
	}
	m.stamp++
	f.lru = m.stamp
	served := f.onChip
	if !served {
		m.promote(m.set(addr), f)
	}
	return f.state, true, served
}

// Lookup returns the state and placement of a line without side effects.
func (m *oracleLocal) Lookup(addr uint64) (st State, hit bool, onChip bool) {
	if f := m.find(addr); f != nil {
		return f.state, true, f.onChip
	}
	return Invalid, false, false
}

// SetState updates the state of a present line, reporting presence.
func (m *oracleLocal) SetState(addr uint64, s State) bool {
	f := m.find(addr)
	if f == nil {
		return false
	}
	f.state = s
	return true
}

// Invalidate removes the line containing addr, returning its prior state.
func (m *oracleLocal) Invalidate(addr uint64) State {
	f := m.find(addr)
	if f == nil {
		return Invalid
	}
	s := f.state
	f.state = Invalid
	return s
}

// Insert places a newly fetched line (always on chip: it was just
// referenced), evicting a victim from the set if needed. Victim preference:
// Invalid frames, then lowest rank (nil rank treats all states equally),
// ties broken by LRU. Re-inserting a present line refreshes state and LRU.
func (m *oracleLocal) Insert(addr uint64, s State, rank func(State) int) Victim {
	if s == Invalid {
		panic("cache: Insert with Invalid state")
	}
	set := m.set(addr)
	if f := m.find(addr); f != nil {
		m.stamp++
		f.lru = m.stamp
		f.state = s
		if !f.onChip {
			m.promote(set, f)
		}
		return Victim{}
	}
	best := -1
	for i := range set {
		if set[i].state == Invalid {
			best = i
			break
		}
		if best == -1 {
			best = i
			continue
		}
		if rank != nil {
			ri, rb := rank(set[i].state), rank(set[best].state)
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
	if set[best].state != Invalid {
		v = Victim{Addr: set[best].tag, State: set[best].state}
	}
	m.stamp++
	wasOn := set[best].onChip
	set[best] = oracleLFrame{tag: m.Align(addr), state: s, lru: m.stamp, onChip: wasOn}
	if !wasOn {
		m.promote(set, &set[best])
	}
	return v
}

// ProbeVictim returns what Insert(addr, ..., rank) would displace, without
// modifying the memory: the zero Victim if the line is already present or a
// free frame exists, else the would-be victim. COMA injection uses this to
// decide whether placing a line here would displace another master.
func (m *oracleLocal) ProbeVictim(addr uint64, rank func(State) int) Victim {
	if m.find(addr) != nil {
		return Victim{}
	}
	set := m.set(addr)
	best := -1
	for i := range set {
		if set[i].state == Invalid {
			return Victim{}
		}
		if best == -1 {
			best = i
			continue
		}
		if rank != nil {
			ri, rb := rank(set[i].state), rank(set[best].state)
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
	return Victim{Addr: set[best].tag, State: set[best].state}
}

// ForEach calls fn for every valid line in deterministic frame order.
func (m *oracleLocal) ForEach(fn func(addr uint64, s State, onChip bool)) {
	for i := range m.frames {
		if m.frames[i].state != Invalid {
			fn(m.frames[i].tag, m.frames[i].state, m.frames[i].onChip)
		}
	}
}

// Count returns the number of valid lines.
func (m *oracleLocal) Count() int {
	n := 0
	for i := range m.frames {
		if m.frames[i].state != Invalid {
			n++
		}
	}
	return n
}

// Flush removes all lines, invoking fn (if non-nil) for each valid one. Used
// when a P-node is reconfigured into a D-node (§2.3: dirty and shared-master
// lines are written back to their homes).
func (m *oracleLocal) Flush(fn func(addr uint64, s State)) {
	for i := range m.frames {
		if m.frames[i].state != Invalid {
			if fn != nil {
				fn(m.frames[i].tag, m.frames[i].state)
			}
			m.frames[i].state = Invalid
		}
	}
}
