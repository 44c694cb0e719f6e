package jsonwire

import (
	"math"
	"strconv"
	"time"
)

// Reader walks one JSON document of the plain shape the fast-path decoders
// take: objects and arrays with whitespace anywhere, keys and string values
// of unescaped ASCII, integer literals for integer fields, number literals
// for float fields, true and false for booleans. Anything else, null
// included, fails the Reader; from then on every call returns a zero value
// or false, and Done reports false, so a caller decodes the whole input
// with encoding/json instead. A Reader decides only what it parses; which
// keys are known is the caller's to say, through Member.
type Reader struct {
	b      []byte
	i      int
	failed bool
}

// NewReader returns a Reader at the start of b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Done reports whether the whole input was read without failing, with
// nothing but whitespace after the value.
func (r *Reader) Done() bool {
	return !r.failed && SkipSpace(r.b, r.i) == len(r.b)
}

// peek skips whitespace and returns the next byte, 0 at the end or after a
// failure.
func (r *Reader) peek() byte {
	if r.failed {
		return 0
	}
	r.i = SkipSpace(r.b, r.i)
	if r.i == len(r.b) {
		return 0
	}
	return r.b[r.i]
}

// open consumes the opening bracket c and reports whether a member or
// element follows; an immediately closing bracket is consumed too.
func (r *Reader) open(c, close byte) bool {
	if r.peek() != c {
		r.failed = true
		return false
	}
	r.i++
	if r.peek() == close {
		r.i++
		return false
	}
	return !r.failed
}

// Object consumes an object's '{' and reports whether a member follows:
//
//	var seen uint64
//	for more := r.Object(); more; more = r.More('}') {
//		switch r.Member(keys, &seen) { ... }
//	}
func (r *Reader) Object() bool { return r.open('{', '}') }

// Array consumes an array's '[' and reports whether an element follows;
// iterate with More(']').
func (r *Reader) Array() bool { return r.open('[', ']') }

// More consumes the ',' before the next member or element and reports true,
// or consumes the closing bracket and reports false.
func (r *Reader) More(close byte) bool {
	switch r.peek() {
	case ',':
		r.i++
		return true
	case close:
		r.i++
		return false
	}
	r.failed = true
	return false
}

// plain returns the unescaped ASCII contents of the string at the cursor,
// a sub-slice of the input.
func (r *Reader) plain() []byte {
	if r.peek() != '"' {
		r.failed = true
		return nil
	}
	start := r.i + 1
	for j := start; j < len(r.b); j++ {
		switch c := r.b[j]; {
		case c == '"':
			r.i = j + 1
			return r.b[start:j]
		case c < 0x20 || c >= 0x80 || c == '\\':
			r.failed = true
			return nil
		}
	}
	r.failed = true
	return nil
}

// key reads a member's key and its ':'. The result aliases the input.
func (r *Reader) key() []byte {
	k := r.plain()
	if r.peek() != ':' {
		r.failed = true
		return nil
	}
	r.i++
	return k
}

// Member reads the next member's key and returns it as the matching entry
// of keys. A key not in keys, or one already recorded in seen (the bit of
// each key index this object has read), fails the Reader and returns "".
// keys holds at most 64 names.
func (r *Reader) Member(keys []string, seen *uint64) string {
	k := r.key()
	if r.failed {
		return ""
	}
	for i, name := range keys {
		if string(k) == name {
			if *seen&(1<<i) != 0 {
				break
			}
			*seen |= 1 << i
			return name
		}
	}
	r.failed = true
	return ""
}

// String reads a string value.
func (r *Reader) String() string { return string(r.plain()) }

// Bool reads true or false.
func (r *Reader) Bool() bool {
	switch r.peek() {
	case 't':
		if j := scanLiteral(r.b, r.i, "true"); j > 0 {
			r.i = j
			return true
		}
	case 'f':
		if j := scanLiteral(r.b, r.i, "false"); j > 0 {
			r.i = j
			return false
		}
	}
	r.failed = true
	return false
}

// number returns the number literal at the cursor.
func (r *Reader) number() []byte {
	if c := r.peek(); c != '-' && (c < '0' || c > '9') {
		r.failed = true
		return nil
	}
	j := scanNumber(r.b, r.i)
	if j < 0 {
		r.failed = true
		return nil
	}
	lit := r.b[r.i:j]
	r.i = j
	return lit
}

// digits returns the value of an unsigned decimal literal, false when lit
// holds anything but digits or the value overflows 64 bits.
func digits(lit []byte) (uint64, bool) {
	if len(lit) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range lit {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

// Uint reads an integer literal into a uint64.
func (r *Reader) Uint() uint64 {
	v, ok := digits(r.number())
	if !ok {
		r.failed = true
	}
	return v
}

// Int64 reads an integer literal that fits an int64.
func (r *Reader) Int64() int64 {
	lit := r.number()
	neg := len(lit) > 0 && lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	u, ok := digits(lit)
	switch {
	case !ok || u > 1<<63 || u == 1<<63 && !neg:
		r.failed = true
		return 0
	case neg:
		return -int64(u)
	}
	return int64(u)
}

// Int reads an integer literal that fits an int.
func (r *Reader) Int() int {
	v := r.Int64()
	if int64(int(v)) != v {
		r.failed = true
		return 0
	}
	return int(v)
}

// Float reads a number literal as encoding/json does for a float64 field.
func (r *Reader) Float() float64 {
	lit := r.number()
	if r.failed {
		return 0
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		r.failed = true
		return 0
	}
	return f
}

// Time reads a time.Time through its own UnmarshalJSON, handed the quoted
// literal exactly as encoding/json hands it over.
func (r *Reader) Time() time.Time {
	r.peek()
	start := r.i
	r.plain()
	var t time.Time
	if r.failed || t.UnmarshalJSON(r.b[start:r.i]) != nil {
		r.failed = true
		return time.Time{}
	}
	return t
}
