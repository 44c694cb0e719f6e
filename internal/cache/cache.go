// Package cache implements the set-associative storage structures used
// throughout the machine: the on-chip L1/L2 SRAM caches, the tagged local
// DRAM memory of AGG P-nodes (organized as a cache per §2.1.1 of the paper),
// and the attraction memories of the Flat COMA baseline.
//
// Caches track only tags and coherence state — the simulator is timing- and
// coherence-accurate, not data-accurate, so no payload bytes are stored.
package cache

import (
	"fmt"
	"math/bits"
)

// State is the coherence state of a cached line. The paper's protocol uses
// invalid/shared/dirty plus the COMA-inspired shared-master state (§2.2.2).
type State uint8

const (
	// Invalid: the frame holds no valid line.
	Invalid State = iota
	// Shared: a read-only copy; another node (usually the home) holds the
	// master copy.
	Shared
	// SharedMaster: a read-only copy designated as the master. If displaced
	// it must be written back to the home (§2.2.2).
	SharedMaster
	// Dirty: the only valid copy, writable. The home keeps no place holder.
	Dirty
)

// String returns a short human-readable state name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case SharedMaster:
		return "M*"
	case Dirty:
		return "D"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Valid reports whether the state denotes a present line.
func (s State) Valid() bool { return s != Invalid }

// Owned reports whether displacing a line in this state requires writing it
// back to its home (it is the master or the only copy).
func (s State) Owned() bool { return s == Dirty || s == SharedMaster }

// Victim describes a line displaced by an insertion.
type Victim struct {
	Addr  uint64 // line-aligned byte address
	State State
}

// Valid reports whether a real line was displaced.
func (v Victim) Valid() bool { return v.State != Invalid }

// A frame is one line slot of a SetAssoc or a LocalMemory. Its tag word packs
// the line-aligned address with the frame's flags in the low bits the
// alignment leaves free (New and NewLocal reject lines under 8 bytes): the
// coherence state in bits 0-1 and, in local memory, the on-chip placement in
// bit 2. A frame is then 16 bytes and a 4-way set one 64-byte host cache line.
const (
	stateMask = 3
	onChipBit = 4
	flagMask  = stateMask | onChipBit
)

type frame struct {
	tagbits uint64 // line-aligned address | flags
	lru     uint64 // global LRU stamp; larger = more recent
}

func (f *frame) tag() uint64      { return f.tagbits &^ flagMask }
func (f *frame) state() State     { return State(f.tagbits & stateMask) }
func (f *frame) setState(s State) { f.tagbits = f.tagbits&^stateMask | uint64(s) }
func (f *frame) valid() bool      { return f.tagbits&stateMask != 0 }
func (f *frame) onChip() bool     { return f.tagbits&onChipBit != 0 }

// holds reports whether f holds a valid copy of the line tagged tag: with
// the placement bit masked off, the XOR leaves exactly the state, which must
// be nonzero.
func (f *frame) holds(tag uint64) bool { return ((f.tagbits^tag)&^onChipBit)-1 < stateMask }

// SetAssoc is a set-associative tag/state array with true-LRU replacement.
type SetAssoc struct {
	lineBytes uint64
	lineShift uint
	sets      uint64
	setMask   uint64
	assoc     int
	frames    []frame // sets × assoc
	stamp     uint64
}

// New builds a cache of totalBytes capacity with the given line size and
// associativity. Line size and the resulting set count must be powers of two;
// assoc may be any positive value.
func New(totalBytes, lineBytes uint64, assoc int) (*SetAssoc, error) {
	if assoc <= 0 {
		return nil, fmt.Errorf("cache: associativity %d must be positive", assoc)
	}
	if err := checkLine(lineBytes); err != nil {
		return nil, err
	}
	lines := totalBytes / lineBytes
	if lines == 0 || lines%uint64(assoc) != 0 {
		return nil, fmt.Errorf("cache: capacity %dB is not a multiple of %d ways of %dB lines", totalBytes, assoc, lineBytes)
	}
	sets := lines / uint64(assoc)
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d must be a power of two", sets)
	}
	return &SetAssoc{
		lineBytes: lineBytes,
		lineShift: uint(bits.TrailingZeros64(lineBytes)),
		sets:      sets,
		setMask:   sets - 1,
		assoc:     assoc,
		frames:    make([]frame, lines),
	}, nil
}

// checkLine validates a line size: a power of two of at least 8 bytes, so a
// line-aligned tag leaves the low bits the frames pack their flags into.
func checkLine(lineBytes uint64) error {
	if lineBytes < 8 || lineBytes&(lineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d must be a power of two of at least 8 bytes", lineBytes)
	}
	return nil
}

// MustNew is New, panicking on error. For configurations known at compile time.
func MustNew(totalBytes, lineBytes uint64, assoc int) *SetAssoc {
	c, err := New(totalBytes, lineBytes, assoc)
	if err != nil {
		panic(err)
	}
	return c
}

// LineBytes returns the line size in bytes.
func (c *SetAssoc) LineBytes() uint64 { return c.lineBytes }

// Lines returns the total number of line frames.
func (c *SetAssoc) Lines() uint64 { return c.sets * uint64(c.assoc) }

// Assoc returns the associativity.
func (c *SetAssoc) Assoc() int { return c.assoc }

// Align returns addr rounded down to its line boundary.
func (c *SetAssoc) Align(addr uint64) uint64 { return addr &^ (c.lineBytes - 1) }

func (c *SetAssoc) set(addr uint64) []frame {
	s := (addr >> c.lineShift) & c.setMask
	return c.frames[s*uint64(c.assoc) : (s+1)*uint64(c.assoc)]
}

func (c *SetAssoc) find(addr uint64) *frame {
	tag := c.Align(addr)
	set := c.set(addr)
	for i := range set {
		if set[i].holds(tag) {
			return &set[i]
		}
	}
	return nil
}

// Lookup returns the state of the line containing addr without updating LRU.
func (c *SetAssoc) Lookup(addr uint64) (State, bool) {
	if f := c.find(addr); f != nil {
		return f.state(), true
	}
	return Invalid, false
}

// Access returns the state of the line containing addr, marking it most
// recently used on a hit.
func (c *SetAssoc) Access(addr uint64) (State, bool) {
	if f := c.find(addr); f != nil {
		c.stamp++
		f.lru = c.stamp
		return f.state(), true
	}
	return Invalid, false
}

// SetState updates the state of a present line. It reports whether the line
// was present. Setting Invalid removes the line.
func (c *SetAssoc) SetState(addr uint64, s State) bool {
	f := c.find(addr)
	if f == nil {
		return false
	}
	f.setState(s)
	return true
}

// Invalidate removes the line containing addr, returning its prior state.
func (c *SetAssoc) Invalidate(addr uint64) State {
	f := c.find(addr)
	if f == nil {
		return Invalid
	}
	s := f.state()
	f.setState(Invalid)
	return s
}

// Insert places the line containing addr with the given state, evicting the
// least attractive frame in its set if full. Victim preference: Invalid
// frames first, then lowest rank as reported by rank (nil means all equal),
// ties broken by LRU. If the line is already present its state is updated
// in place and no victim results.
func (c *SetAssoc) Insert(addr uint64, s State, rank func(State) int) Victim {
	if s == Invalid {
		panic("cache: Insert with Invalid state")
	}
	if f := c.find(addr); f != nil {
		c.stamp++
		f.lru = c.stamp
		f.setState(s)
		return Victim{}
	}
	set := c.set(addr)
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
	c.stamp++
	set[best] = frame{tagbits: c.Align(addr) | uint64(s), lru: c.stamp}
	return v
}

// ForEach calls fn for every valid line (address, state). Iteration order is
// frame order (deterministic).
func (c *SetAssoc) ForEach(fn func(addr uint64, s State)) {
	for i := range c.frames {
		if f := &c.frames[i]; f.valid() {
			fn(f.tag(), f.state())
		}
	}
}

// Count returns the number of valid lines.
func (c *SetAssoc) Count() int {
	n := 0
	for i := range c.frames {
		if c.frames[i].valid() {
			n++
		}
	}
	return n
}

// Flush removes all lines, invoking fn (if non-nil) for each valid one.
func (c *SetAssoc) Flush(fn func(addr uint64, s State)) {
	for i := range c.frames {
		if f := &c.frames[i]; f.valid() {
			if fn != nil {
				fn(f.tag(), f.state())
			}
			f.setState(Invalid)
		}
	}
}
