package svclog

import (
	"encoding/binary"
	"slices"
	"time"
)

// chain is one job's packed event chain: each event's time kept whole in
// at, and everything else about it varint-packed into b. An event's bytes
// in b are, in order:
//
//	head    one byte: the kind's index into knownKinds in the low four bits
//	        (kindEscape for any other kind), and the flags hasTenant,
//	        hasCycles and hasDetail
//	kind    only after kindEscape: the kind's uvarint length and bytes
//	seq     uvarint: the first event's Seq, or Seq minus that for a later one
//	since   zigzag varint SinceSubmitUS
//	depth   zigzag varint QueueDepth
//	running zigzag varint Running
//	config  zigzag varint Config
//	tenant  only with hasTenant: uvarint length, then the bytes
//	cycles  only with hasCycles: uvarint Cycles
//	detail  only with hasDetail: uvarint length, then the bytes
//
// An event without hasTenant has the first event's tenant, and the first
// event itself an empty one, so a job's constant tenant is written once.
// Every later event is encoded against the first, which sits at the front
// of b, so an append needs no per-chain state beyond the two slices. No
// integer is narrowed.
type chain struct {
	at []time.Time
	b  []byte
}

// knownKinds are the kinds a chain stores in its head byte, by index.
var knownKinds = [...]JobEventKind{EvSubmitted, EvQueued, EvStarted, EvCacheHit,
	EvJoined, EvSimulated, EvPersisted, EvDone, EvFailed, EvAborted}

// A chain's first append makes room for chainRoom events of up to
// chainBytesPerEvent packed bytes: a Figure-6 batch's 11 events, which
// take about 8 bytes each, then grow neither slice before the trim.
const (
	chainRoom          = 12
	chainBytesPerEvent = 10
)

// The head byte's kind field and flags.
const (
	kindMask   = 0x0f
	kindEscape = 0x0f // a kind outside knownKinds, stored in full after the head
	hasTenant  = 0x10
	hasCycles  = 0x20
	hasDetail  = 0x40
)

// terminal reports whether kind ends a job's chain.
func terminal(kind JobEventKind) bool {
	switch kind {
	case EvDone, EvFailed, EvAborted:
		return true
	}
	return false
}

// append encodes ev onto the chain; a terminal event trims both slices to
// their length, since the chain is then complete.
func (c chain) append(ev JobEvent) chain {
	var first uint64
	var tenant []byte
	if len(c.at) > 0 {
		first, tenant = c.head()
	} else {
		c = chain{make([]time.Time, 0, chainRoom), make([]byte, 0, chainRoom*chainBytesPerEvent)}
	}
	head := byte(kindEscape)
	if k := slices.Index(knownKinds[:], ev.Kind); k >= 0 {
		head = byte(k)
	}
	if string(tenant) != ev.Tenant {
		head |= hasTenant
	}
	if ev.Cycles != 0 {
		head |= hasCycles
	}
	if ev.Detail != "" {
		head |= hasDetail
	}
	b := append(c.b, head)
	if head&kindMask == kindEscape {
		b = appendString(b, string(ev.Kind))
	}
	b = binary.AppendUvarint(b, ev.Seq-first)
	b = binary.AppendVarint(b, ev.SinceSubmitUS)
	b = binary.AppendVarint(b, int64(ev.QueueDepth))
	b = binary.AppendVarint(b, int64(ev.Running))
	b = binary.AppendVarint(b, int64(ev.Config))
	if head&hasTenant != 0 {
		b = appendString(b, ev.Tenant)
	}
	if head&hasCycles != 0 {
		b = binary.AppendUvarint(b, ev.Cycles)
	}
	if head&hasDetail != 0 {
		b = appendString(b, ev.Detail)
	}
	at := append(c.at, ev.At)
	if terminal(ev.Kind) {
		return chain{slices.Clone(at), slices.Clone(b)}
	}
	return chain{at, b}
}

// head returns the first event's Seq and tenant bytes.
func (c chain) head() (uint64, []byte) {
	r := chainReader{b: c.b}
	h, _ := r.head()
	seq := r.uvarint()
	if h&hasTenant == 0 {
		return seq, nil
	}
	for range 4 { // since, depth, running, config
		r.varint()
	}
	return seq, r.bytes()
}

// events rebuilds the chain's events for job id, each equal to the one
// Append returned.
func (c chain) events(id string) []JobEvent {
	out := make([]JobEvent, len(c.at))
	r := chainReader{b: c.b}
	var first uint64
	var tenant string
	for i := range out {
		e := &out[i]
		var h byte
		h, e.Kind = r.head()
		e.Seq = r.uvarint() + first
		e.Job, e.At = id, c.at[i]
		e.SinceSubmitUS = r.varint()
		e.QueueDepth = int(r.varint())
		e.Running = int(r.varint())
		e.Config = int(r.varint())
		e.Tenant = tenant
		if h&hasTenant != 0 {
			e.Tenant = string(r.bytes())
		}
		if h&hasCycles != 0 {
			e.Cycles = r.uvarint()
		}
		if h&hasDetail != 0 {
			e.Detail = string(r.bytes())
		}
		if i == 0 {
			first, tenant = e.Seq, e.Tenant
		}
	}
	return out
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// chainReader walks a chain's bytes, which only chain.append wrote.
type chainReader struct {
	b []byte
}

func (r *chainReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	r.b = r.b[n:]
	return v
}

func (r *chainReader) varint() int64 {
	v, n := binary.Varint(r.b)
	r.b = r.b[n:]
	return v
}

func (r *chainReader) bytes() []byte {
	n := r.uvarint()
	s := r.b[:n]
	r.b = r.b[n:]
	return s
}

// head reads an event's head byte and its kind.
func (r *chainReader) head() (byte, JobEventKind) {
	h := r.b[0]
	r.b = r.b[1:]
	if k := h & kindMask; k != kindEscape {
		return h, knownKinds[k]
	}
	return h, JobEventKind(r.bytes())
}
