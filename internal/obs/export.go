package obs

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strconv"

	"pimdsm/internal/jsonwire"
	"pimdsm/internal/proto"
	"pimdsm/internal/sim"
)

// ChromeWriter writes one Chrome trace_event JSON document, the JSON
// Object Format of the Trace Event spec loadable in chrome://tracing and
// Perfetto: the envelope, then events, each followed by its args. Times
// are microseconds with a fixed number of decimals; strings are quoted as
// json.Marshal quotes them. The simulator's protocol traces and the
// service's job lifecycles are both written through it.
type ChromeWriter struct {
	w        io.Writer
	err      error
	b        []byte // unwritten output
	decimals int
	events   int // events started
}

// NewChromeWriter starts a document on w whose viewer shows times in
// displayTimeUnit ("ns", "ms"); every ts and dur carries decimals digits
// after the microsecond.
func NewChromeWriter(w io.Writer, displayTimeUnit string, decimals int) *ChromeWriter {
	c := &ChromeWriter{w: w, decimals: decimals, b: make([]byte, 0, 8<<10)}
	c.b = jsonwire.AppendString(append(c.b, `{"displayTimeUnit":`...), displayTimeUnit)
	c.b = append(c.b, `,"traceEvents":[`...)
	return c
}

// Event starts an event of phase ph: 'i' a thread-scoped instant, 'X' a
// complete event lasting dur, 'C' a process-wide counter sample (no
// thread; its args are the series). Its args follow.
func (c *ChromeWriter) Event(ph byte, name, cat string, ts, dur float64, tid int64) {
	if c.events > 0 {
		c.b = append(c.b, "}},"...)
	}
	if len(c.b) > cap(c.b)-1024 {
		c.flush()
	}
	c.events++
	c.b = jsonwire.AppendString(append(c.b, `{"name":`...), name)
	c.b = jsonwire.AppendString(append(c.b, `,"cat":`...), cat)
	c.b = append(c.b, `,"ph":"`...)
	c.b = append(c.b, ph, '"')
	if ph == 'i' {
		c.b = append(c.b, `,"s":"t"`...)
	}
	c.b = strconv.AppendFloat(append(c.b, `,"ts":`...), ts, 'f', c.decimals, 64)
	if ph == 'X' {
		c.b = strconv.AppendFloat(append(c.b, `,"dur":`...), dur, 'f', c.decimals, 64)
	}
	c.b = append(c.b, `,"pid":0`...)
	if ph != 'C' {
		c.b = strconv.AppendInt(append(c.b, `,"tid":`...), tid, 10)
	}
	c.b = append(c.b, `,"args":{`...)
}

func (c *ChromeWriter) key(k string) {
	if c.b[len(c.b)-1] != '{' { // not the open event's first arg
		c.b = append(c.b, ',')
	}
	c.b = append(jsonwire.AppendString(c.b, k), ':')
}

// Int writes an integer arg of the open event.
func (c *ChromeWriter) Int(k string, v int64) {
	c.key(k)
	c.b = strconv.AppendInt(c.b, v, 10)
}

// Uint writes an unsigned integer arg of the open event.
func (c *ChromeWriter) Uint(k string, v uint64) {
	c.key(k)
	c.b = strconv.AppendUint(c.b, v, 10)
}

// String writes a string arg of the open event.
func (c *ChromeWriter) String(k, v string) {
	c.key(k)
	c.b = jsonwire.AppendString(c.b, v)
}

// Hex writes v as a "0x"-prefixed hexadecimal string arg (an address).
func (c *ChromeWriter) Hex(k string, v uint64) {
	c.key(k)
	c.b = append(strconv.AppendUint(append(c.b, `"0x`...), v, 16), '"')
}

func (c *ChromeWriter) flush() {
	if c.err == nil {
		_, c.err = c.w.Write(c.b)
	}
	c.b = c.b[:0]
}

// Close ends the document and returns the first write error.
func (c *ChromeWriter) Close() error {
	if c.events > 0 {
		c.b = append(c.b, "}}"...)
	}
	c.b = append(c.b, "]}\n"...)
	c.flush()
	return c.err
}

// Protocol traces: simulated cycles are nanoseconds (1 GHz machines), so
// ts = cycles/1000 microseconds to three decimals, displayed in "ns".

// WriteChromeJSONEvents writes events (Trace.Events, or ReadBinary's) as
// Chrome trace_event JSON, in the order given (sim-time order from either).
// Span kinds become complete ("X") events, counter kinds counter ("C")
// tracks, everything else thread-scoped instants ("i").
func WriteChromeJSONEvents(w io.Writer, events []Event) error {
	c := NewChromeWriter(w, "ns", 3)
	for _, e := range events {
		m := kindMeta[e.Kind]
		ts := float64(e.At) / 1000.0
		switch {
		case m.counter:
			// One counter track per node: "free-slots D3".
			c.Event('C', m.name+" D"+strconv.Itoa(int(e.Node)), m.cat, ts, 0, 0)
			c.Uint("free", e.Arg)
			continue
		case m.span:
			c.Event('X', m.name, m.cat, ts, float64(e.Dur)/1000.0, int64(e.Node))
		default:
			c.Event('i', m.name, m.cat, ts, 0, int64(e.Node))
		}
		writeArgs(c, e)
	}
	return c.Close()
}

// writeArgs renders the kind-specific payload.
func writeArgs(c *ChromeWriter, e Event) {
	switch e.Kind {
	case EvRead, EvWrite:
		c.Hex("addr", e.Addr)
		c.Uint("class", e.Arg)
	case EvMsg:
		c.Uint("dst", e.Addr)
		c.Uint("hops", e.Arg>>32)
		c.Uint("bytes", e.Arg&0xffffffff)
	case EvPageout:
		c.Hex("page", e.Addr)
		c.Uint("free", e.Arg)
	case EvPhase:
		c.Uint("phase", e.Arg)
	case EvInject:
		c.Hex("addr", e.Addr)
		c.Uint("hops", e.Arg)
	case EvScan:
		c.Hex("addr", e.Addr)
		c.Uint("lines", e.Arg)
	case EvRunStart:
		c.Uint("threads", e.Arg)
	default:
		c.Hex("addr", e.Addr)
	}
}

// Compact binary format: a fixed 24-byte header followed by fixed 40-byte
// little-endian records. The header carries the total emitted count so a
// reader can tell how many events the ring dropped.
//
//	header: magic "PDT1" | version uint16 | reserved uint16 |
//	        held uint64 | total uint64
//	record: At uint64 | Dur uint64 | Addr uint64 | Arg uint64 |
//	        Node int32 | Kind uint8 | pad [3]byte

const (
	binMagic   = "PDT1"
	binVersion = 1
	recordSize = 40
	// presize bounds the records a decoder allocates for before reading
	// them; past it the buffers grow with the records actually read.
	presize = 1 << 10
)

// WriteBinary writes the trace's held events in the compact binary format,
// in sim-time order.
func (t *Trace) WriteBinary(w io.Writer) error { return writeBinary(w, t.Events(), t.Total()) }

// writeBinary writes events, in the order given, under a header counting
// total emitted events.
func writeBinary(w io.Writer, events []Event, total uint64) error {
	bw := bufio.NewWriter(w)
	var hdr [24]byte
	copy(hdr[:4], binMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], binVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(events)))
	binary.LittleEndian.PutUint64(hdr[16:24], total)
	bw.Write(hdr[:]) // a write error sticks to bw; Flush returns it
	var rec [recordSize]byte
	for _, e := range events {
		binary.LittleEndian.PutUint64(rec[0:8], uint64(e.At))
		binary.LittleEndian.PutUint64(rec[8:16], uint64(e.Dur))
		binary.LittleEndian.PutUint64(rec[16:24], e.Addr)
		binary.LittleEndian.PutUint64(rec[24:32], e.Arg)
		binary.LittleEndian.PutUint32(rec[32:36], uint32(e.Node))
		rec[36] = byte(e.Kind)
		rec[37], rec[38], rec[39] = 0, 0, 0
		bw.Write(rec[:])
	}
	return bw.Flush()
}

// Compact binary span format, the PDT1 analogue for Spans: a 32-byte header,
// the full aggregate tables, then the kept spans oldest first.
//
//	header: magic "PDS1" | version uint16 | phases uint8 | classes uint8 |
//	        retired uint64 | bad uint64 | kept uint64
//	table : per (direction, class): count uint64 | queued uint64 |
//	        phase cycles [phases]uint64
//	record: ID uint64 | Start uint64 | End uint64 | Addr uint64 |
//	        Queued uint64 | Phases [phases]uint64 |
//	        Node uint32 | flags uint8 (bit0 write) | Class uint8 | pad uint16
const (
	spanMagic   = "PDS1"
	spanVersion = 1
)

// WriteBinary writes the recorder's aggregate tables and kept spans in the
// compact PDS1 format.
func (s *Spans) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	kept := s.Kept()
	var hdr [32]byte
	copy(hdr[:4], spanMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], spanVersion)
	hdr[6] = uint8(NumPhases)
	hdr[7] = uint8(proto.NumLatClasses)
	binary.LittleEndian.PutUint64(hdr[8:16], s.retired)
	binary.LittleEndian.PutUint64(hdr[16:24], s.bad)
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(len(kept)))
	bw.Write(hdr[:]) // a write error sticks to bw; Flush returns it
	var u [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(u[:], v)
		bw.Write(u[:])
	}
	for wi := 0; wi < 2; wi++ {
		for c := 0; c < int(proto.NumLatClasses); c++ {
			put(s.count[wi][c])
			put(uint64(s.queued[wi][c]))
			for p := 0; p < int(NumPhases); p++ {
				put(uint64(s.agg[wi][c][p]))
			}
		}
	}
	for i := range kept {
		sp := &kept[i]
		put(sp.ID)
		put(uint64(sp.Start))
		put(uint64(sp.End))
		put(sp.Addr)
		put(uint64(sp.Queued))
		for p := 0; p < int(NumPhases); p++ {
			put(uint64(sp.Phases[p]))
		}
		var flags uint64
		if sp.Write {
			flags = 1
		}
		put(uint64(uint32(sp.Node)) | flags<<32 | uint64(sp.Class)<<40)
	}
	return bw.Flush()
}

// ReadSpansBinary parses a PDS1 file into a disabled recorder whose
// aggregate tables, counters, and keep-ring mirror the writer's, so the
// breakdown renderers work on loaded files exactly as on live recorders.
func ReadSpansBinary(r io.Reader) (*Spans, error) {
	br := bufio.NewReader(r)
	var hdr [32]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("obs: span header: %w", err)
	}
	if string(hdr[:4]) != spanMagic {
		return nil, fmt.Errorf("obs: not a span file (magic %q)", hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != spanVersion {
		return nil, fmt.Errorf("obs: unsupported span version %d", v)
	}
	if hdr[6] != uint8(NumPhases) || hdr[7] != uint8(proto.NumLatClasses) {
		return nil, fmt.Errorf("obs: span file has %d phases / %d classes, this build expects %d / %d",
			hdr[6], hdr[7], NumPhases, proto.NumLatClasses)
	}
	s := &Spans{
		retired: binary.LittleEndian.Uint64(hdr[8:16]),
		bad:     binary.LittleEndian.Uint64(hdr[16:24]),
	}
	kept := binary.LittleEndian.Uint64(hdr[24:32])
	if kept > (1 << 32) {
		return nil, fmt.Errorf("obs: implausible kept-span count %d", kept)
	}
	var err error
	read := func() uint64 { // the next little-endian word; 0 once err is set
		var u [8]byte
		if err == nil {
			_, err = io.ReadFull(br, u[:])
		}
		return binary.LittleEndian.Uint64(u[:])
	}
	for w := 0; w < 2; w++ {
		for c := 0; c < int(proto.NumLatClasses); c++ {
			s.count[w][c] = read()
			s.queued[w][c] = sim.Time(read())
			for p := 0; p < int(NumPhases); p++ {
				s.agg[w][c][p] = sim.Time(read())
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("obs: span aggregate table: %w", err)
	}
	// The header's count is untrusted: the ring grows with the records
	// actually read, so a short file fails before it costs memory.
	keep := make([]Span, 0, min(kept, presize))
	for i := uint64(0); i < kept; i++ {
		sp := Span{
			ID:     read(),
			Start:  sim.Time(read()),
			End:    sim.Time(read()),
			Addr:   read(),
			Queued: sim.Time(read()),
		}
		for p := 0; p < int(NumPhases); p++ {
			sp.Phases[p] = sim.Time(read())
		}
		tail := read() // Node uint32 | flags uint8 | Class uint8 | pad
		if err != nil {
			return nil, fmt.Errorf("obs: span record %d: %w", i, err)
		}
		sp.Node, sp.Write, sp.Class = int32(uint32(tail)), tail>>32&1 != 0, proto.LatClass(tail>>40)
		if sp.Class >= proto.NumLatClasses {
			return nil, fmt.Errorf("obs: span record %d: unknown class %d", i, sp.Class)
		}
		keep = append(keep, sp)
	}
	capN := 1
	for capN < len(keep) {
		capN <<= 1
	}
	s.keep = slices.Grow(keep, capN-len(keep))[:capN]
	s.keepMask = uint64(capN - 1)
	s.kept = kept
	return s, nil
}

// ReadBinary parses a compact binary trace, returning the held events and
// the total emitted count (total > len(events) means the ring dropped the
// difference).
func ReadBinary(r io.Reader) (events []Event, total uint64, err error) {
	br := bufio.NewReader(r)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, 0, fmt.Errorf("obs: trace header: %w", err)
	}
	if string(hdr[:4]) != binMagic {
		return nil, 0, fmt.Errorf("obs: not a trace file (magic %q)", hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != binVersion {
		return nil, 0, fmt.Errorf("obs: unsupported trace version %d", v)
	}
	held := binary.LittleEndian.Uint64(hdr[8:16])
	total = binary.LittleEndian.Uint64(hdr[16:24])
	if held > (1<<32) || held > total { // the ring holds at most what was emitted
		return nil, 0, fmt.Errorf("obs: implausible event counts: %d held of %d emitted", held, total)
	}
	events = make([]Event, 0, min(held, presize)) // held is untrusted
	var rec [recordSize]byte
	for i := uint64(0); i < held; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, 0, fmt.Errorf("obs: trace record %d: %w", i, err)
		}
		k := EventKind(rec[36])
		if k >= NumEventKinds {
			return nil, 0, fmt.Errorf("obs: trace record %d: unknown kind %d", i, k)
		}
		events = append(events, Event{
			At:   sim.Time(binary.LittleEndian.Uint64(rec[0:8])),
			Dur:  sim.Time(binary.LittleEndian.Uint64(rec[8:16])),
			Addr: binary.LittleEndian.Uint64(rec[16:24]),
			Arg:  binary.LittleEndian.Uint64(rec[24:32]),
			Node: int32(binary.LittleEndian.Uint32(rec[32:36])),
			Kind: k,
		})
	}
	return events, total, nil
}
