package hashmap

import (
	"encoding/binary"
	"testing"
)

// fuzzWrap holds keys homed on the last slot of a 16-slot table, whose probe
// runs wrap onto slot 0, the home of key 0.
var fuzzWrap = wrapKeys(64, 4)

// fuzzKey decodes one key from the front of data. The selector byte's top
// two bits pick the class: a boundary key (0, 1, 2^64-2, 2^64-1), a
// line-aligned key from a small range, a wrapping key, or 8 raw bytes.
func fuzzKey(data []byte) (uint64, []byte) {
	if len(data) == 0 {
		return 0, nil
	}
	c, data := data[0], data[1:]
	switch c >> 6 {
	case 0:
		return [4]uint64{0, ^uint64(0), 1, ^uint64(0) - 1}[c&3], data
	case 1:
		return uint64(c&63) * 128, data
	case 2:
		return fuzzWrap[c&63], data
	}
	var raw [8]byte
	n := copy(raw[:], data)
	return binary.LittleEndian.Uint64(raw[:]), data[n:]
}

// FuzzMap decodes a byte string into Put, Get, Delete, Reset and Range
// operations (an op byte, then a key) and checks the packed Map against the
// builtin map and, slot for slot, against the three-array oracle. The serve
// result cache keys a Map by client-influenced 64-bit digests, so every key
// must behave. The seed corpus in testdata/fuzz/FuzzMap covers both
// boundary keys, a wrapped probe run holding key 0, Reset and growth.
func FuzzMap(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p := &pair{t: t}
		ref := map[uint64]uint64{}
		var val uint64
		for len(data) > 0 {
			op := data[0]
			var k uint64
			k, data = fuzzKey(data[1:])
			switch op % 5 {
			case 0:
				val++
				p.put(k, val)
				ref[k] = val
			case 1:
				p.get(k)
				v, ok := p.m.Get(k)
				if rv, rok := ref[k]; v != rv || ok != rok {
					t.Fatalf("Get(%#x) = %d,%v; builtin %d,%v", k, v, ok, rv, rok)
				}
			case 2:
				_, had := ref[k]
				if got := p.del(k); got != had {
					t.Fatalf("Delete(%#x) = %v; builtin held it: %v", k, got, had)
				}
				delete(ref, k)
			case 3:
				p.reset()
				clear(ref)
			case 4:
				seen := map[uint64]bool{}
				p.m.Range(func(k, v uint64) bool {
					if rv, ok := ref[k]; !ok || rv != v || seen[k] {
						t.Fatalf("Range yields %#x=%d; builtin %d,%v, seen %v", k, v, rv, ok, seen[k])
					}
					seen[k] = true
					return true
				})
				if len(seen) != len(ref) {
					t.Fatalf("Range yields %d entries; builtin holds %d", len(seen), len(ref))
				}
			}
			if p.m.Len() != len(ref) {
				t.Fatalf("Len = %d; builtin %d", p.m.Len(), len(ref))
			}
			p.check()
		}
	})
}
