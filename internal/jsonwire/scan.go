// Package jsonwire holds the primitives of the service's hand-written JSON
// codecs: a scanner that accepts exactly the language json.Valid does, an
// Object writer that appends exactly encoding/json's bytes for the values
// it can encode, and a Reader for the one plain shape the fast-path
// decoders take.
//
// Nothing here replaces encoding/json. Each codec built on this package
// hands anything unusual to it: the writer clears Object.OK for a string
// that needs escaping, a NaN or infinite float or a time outside years
// 0–9999, and the Reader fails on anything but the plain shape, so the
// caller re-encodes or re-decodes the whole value with encoding/json. Its
// output and its errors are the codecs' reference and their fuzz oracle.
package jsonwire

import "encoding/json"

// maxDepth is encoding/json's nesting limit: json.Valid accepts 10000
// nested arrays and objects and rejects 10001.
const maxDepth = 10000

// The scanners below accept exactly the language json.Valid does. Each
// takes the index of a value's first byte and returns the index just past
// it, or -1 when the bytes there are not a valid value. depth is the
// nesting depth: the arrays and objects open around the value for
// ScanValue, and those plus the one being scanned for scanObject and
// ScanArray.

// ScanValue scans any JSON value at b[i] inside depth open containers.
func ScanValue(b []byte, i, depth int) int {
	if i == len(b) {
		return -1
	}
	switch c := b[i]; c {
	case '"':
		return ScanString(b, i)
	case '{':
		return scanObject(b, i, depth+1)
	case '[':
		return ScanArray(b, i, depth+1, nil)
	case 't':
		return scanLiteral(b, i, "true")
	case 'f':
		return scanLiteral(b, i, "false")
	case 'n':
		return scanLiteral(b, i, "null")
	default:
		if c == '-' || '0' <= c && c <= '9' {
			return scanNumber(b, i)
		}
		return -1
	}
}

// scanObject scans the object at b[i].
func scanObject(b []byte, i, depth int) int {
	if depth > maxDepth {
		return -1
	}
	if i = SkipSpace(b, i+1); i < len(b) && b[i] == '}' {
		return i + 1
	}
	for {
		if i == len(b) || b[i] != '"' {
			return -1
		}
		if i = ScanString(b, i); i < 0 {
			return -1
		}
		if i = SkipSpace(b, i); i == len(b) || b[i] != ':' {
			return -1
		}
		if i = ScanValue(b, SkipSpace(b, i+1), depth); i < 0 {
			return -1
		}
		if i = SkipSpace(b, i); i == len(b) {
			return -1
		}
		switch b[i] {
		case ',':
			i = SkipSpace(b, i+1)
		case '}':
			return i + 1
		default:
			return -1
		}
	}
}

// ScanArray scans the array at b[i]. A non-nil out collects the elements as
// capacity-capped sub-slices of b.
func ScanArray(b []byte, i, depth int, out *[]json.RawMessage) int {
	if depth > maxDepth {
		return -1
	}
	if i = SkipSpace(b, i+1); i < len(b) && b[i] == ']' {
		return i + 1
	}
	for {
		end := ScanValue(b, i, depth)
		if end < 0 {
			return -1
		}
		if out != nil {
			*out = append(*out, b[i:end:end])
		}
		if i = SkipSpace(b, end); i == len(b) {
			return -1
		}
		switch b[i] {
		case ',':
			i = SkipSpace(b, i+1)
		case ']':
			return i + 1
		default:
			return -1
		}
	}
}

// ScanString scans the string at b[i]: no byte below 0x20 and only the
// escapes \" \\ \/ \b \f \n \r \t and \uXXXX. Like json.Valid, it does
// not check UTF-8.
func ScanString(b []byte, i int) int {
	for i++; i < len(b); i++ {
		for plainString[b[i]] {
			if i++; i == len(b) {
				return -1
			}
		}
		switch c := b[i]; {
		case c == '"':
			return i + 1
		case c == '\\':
			if i++; i == len(b) {
				return -1
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(b)-i <= 4 || !isHex(b[i+1]) || !isHex(b[i+2]) || !isHex(b[i+3]) || !isHex(b[i+4]) {
					return -1
				}
				i += 4
			default:
				return -1
			}
		case c < 0x20:
			return -1
		}
	}
	return -1
}

// plainString marks the bytes a string holds as they are: all but '"',
// '\\' and the control bytes below 0x20.
var plainString = func() (t [256]bool) {
	for c := 0x20; c < 256; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// scanNumber scans the number at b[i]: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?.
func scanNumber(b []byte, i int) int {
	if b[i] == '-' {
		if i++; i == len(b) {
			return -1
		}
	}
	switch c := b[i]; {
	case c == '0':
		i++
	case '1' <= c && c <= '9':
		i = skipDigits(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if i = skipDigits(b, i+1); b[i-1] == '.' {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

// skipDigits returns the index of the first non-digit at or after b[i].
func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// scanLiteral scans lit (true, false or null) at b[i].
func scanLiteral(b []byte, i int, lit string) int {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}

// SkipSpace returns the index of the first non-whitespace byte at or after
// b[i].
func SkipSpace(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}
