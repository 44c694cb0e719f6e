package jsonwire

import (
	"encoding/json"
	"math"
	"strconv"
	"time"
)

// Object appends one JSON object member by member, laid out as
// encoding/json lays out a struct: compact like json.Marshal, or indented
// like json.MarshalIndent(v, "", "  ") for an object whose members are all
// scalars. Members come out in call order, so a caller mirrors its
// struct's field order and omitempty rules. Keys are written as given and
// must need no escaping.
//
// OK turns false once a value needs an encoding/json rule Object does not
// implement; the bytes are then incomplete and the caller encodes the
// whole value with encoding/json instead.
type Object struct {
	B      []byte
	OK     bool
	indent bool
	n      int
}

// Begin starts an object at the end of dst.
func Begin(dst []byte, indent bool) Object {
	return Object{B: append(dst, '{'), OK: true, indent: indent}
}

// Key writes the separator and key of the next member; the caller appends
// its value to B. The String, Int, Uint, Float, Bool and Time methods call
// it themselves.
func (o *Object) Key(k string) {
	if o.n > 0 {
		o.B = append(o.B, ',')
	}
	o.n++
	if o.indent {
		o.B = append(o.B, "\n  \""...)
	} else {
		o.B = append(o.B, '"')
	}
	o.B = append(o.B, k...)
	if o.indent {
		o.B = append(o.B, `": `...)
	} else {
		o.B = append(o.B, `":`...)
	}
}

// End closes the object and returns its bytes and whether they are
// encoding/json's.
func (o *Object) End() ([]byte, bool) {
	if o.indent && o.n > 0 {
		o.B = append(o.B, '\n')
	}
	o.B = append(o.B, '}')
	return o.B, o.OK
}

// String writes a string member.
func (o *Object) String(k, v string) {
	o.Key(k)
	var ok bool
	o.B, ok = appendString(o.B, v)
	o.OK = o.OK && ok
}

// Int writes an integer member.
func (o *Object) Int(k string, v int64) {
	o.Key(k)
	o.B = strconv.AppendInt(o.B, v, 10)
}

// Uint writes an unsigned integer member.
func (o *Object) Uint(k string, v uint64) {
	o.Key(k)
	o.B = strconv.AppendUint(o.B, v, 10)
}

// Float writes a float64 member.
func (o *Object) Float(k string, v float64) {
	o.Key(k)
	var ok bool
	o.B, ok = appendFloat(o.B, v)
	o.OK = o.OK && ok
}

// Bool writes a boolean member.
func (o *Object) Bool(k string, v bool) {
	o.Key(k)
	o.B = strconv.AppendBool(o.B, v)
}

// Time writes a time.Time member.
func (o *Object) Time(k string, t time.Time) {
	o.Key(k)
	var ok bool
	o.B, ok = appendTime(o.B, t)
	o.OK = o.OK && ok
}

// safeByte marks the bytes json.Marshal copies into a string unchanged:
// printable ASCII (and DEL) except '"' and '\\', which it escapes, and
// '<', '>' and '&', which its HTML-safe default escapes.
var safeByte = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// AppendString appends s quoted as json.Marshal quotes it.
func AppendString(dst []byte, s string) []byte {
	if b, ok := appendString(dst, s); ok {
		return b
	}
	q, _ := json.Marshal(s) // a string always marshals
	return append(dst, q...)
}

// appendString appends s quoted, false when some byte of s would need
// json.Marshal's escaping or UTF-8 handling.
func appendString(dst []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		if !safeByte[s[i]] {
			return dst, false
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"'), true
}

// appendFloat appends f formatted as json.Marshal formats a float64,
// false for NaN and the infinities, which it rejects.
func appendFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, as encoding/json does.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

// appendTime appends t quoted as time.Time.MarshalJSON writes it (RFC 3339
// with nanoseconds), false where MarshalJSON fails: a year outside 0–9999
// or a zone offset of 24 hours or more.
func appendTime(dst []byte, t time.Time) ([]byte, bool) {
	dst = append(dst, '"')
	n0 := len(dst)
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	if dst[n0+len("9999")] != '-' {
		return dst, false
	}
	if n := len(dst); dst[n-1] != 'Z' {
		c := dst[n-len("Z07:00")]
		if '0' <= c && c <= '9' || 10*(dst[n-5]-'0')+(dst[n-4]-'0') >= 24 {
			return dst, false
		}
	}
	return append(dst, '"'), true
}
