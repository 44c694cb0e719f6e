package hashmap

import (
	"math/rand"
	"testing"
)

func TestMapBasic(t *testing.T) {
	var m Map[int]
	if _, ok := m.Get(0); ok {
		t.Fatal("empty map reports a hit")
	}
	m.Put(0, 10) // key 0 must be a legal key
	m.Put(128, 20)
	m.Put(1<<40, 30)
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3", m.Len())
	}
	for _, c := range []struct {
		k uint64
		v int
	}{{0, 10}, {128, 20}, {1 << 40, 30}} {
		if v, ok := m.Get(c.k); !ok || v != c.v {
			t.Fatalf("Get(%d) = %d,%v want %d,true", c.k, v, ok, c.v)
		}
	}
	m.Put(128, 25)
	if v, _ := m.Get(128); v != 25 {
		t.Fatalf("overwrite lost: got %d", v)
	}
	if m.Len() != 3 {
		t.Fatalf("Len after overwrite = %d, want 3", m.Len())
	}
	if !m.Delete(128) || m.Delete(128) {
		t.Fatal("Delete twice misbehaved")
	}
	if _, ok := m.Get(128); ok {
		t.Fatal("deleted key still present")
	}
	if v, ok := m.Get(0); !ok || v != 10 {
		t.Fatal("unrelated key lost after delete")
	}
}

// TestMapAgainstBuiltin drives the table with a mixed random workload and
// cross-checks every operation against Go's map.
func TestMapAgainstBuiltin(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var m Map[uint64]
	ref := map[uint64]uint64{}
	// Line-aligned keys in a small range force long probe runs and many
	// delete-reinsert cycles.
	key := func() uint64 { return uint64(rng.Intn(512)) * 128 }
	for i := 0; i < 200000; i++ {
		k := key()
		switch rng.Intn(3) {
		case 0:
			v := rng.Uint64()
			m.Put(k, v)
			ref[k] = v
		case 1:
			got := m.Delete(k)
			_, want := ref[k]
			if got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", i, k, got, want)
			}
			delete(ref, k)
		case 2:
			v, ok := m.Get(k)
			rv, rok := ref[k]
			if ok != rok || v != rv {
				t.Fatalf("op %d: Get(%d) = %d,%v want %d,%v", i, k, v, ok, rv, rok)
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", i, m.Len(), len(ref))
		}
	}
	// Full sweep at the end.
	for k, rv := range ref {
		if v, ok := m.Get(k); !ok || v != rv {
			t.Fatalf("final Get(%d) = %d,%v want %d,true", k, v, ok, rv)
		}
	}
	seen := 0
	m.Range(func(k uint64, v uint64) bool {
		if rv, ok := ref[k]; !ok || v != rv {
			t.Fatalf("Range yielded %d=%d not in reference", k, v)
		}
		seen++
		return true
	})
	if seen != len(ref) {
		t.Fatalf("Range visited %d entries, want %d", seen, len(ref))
	}
}

func TestMapReset(t *testing.T) {
	var m Map[int]
	for i := uint64(0); i < 100; i++ {
		m.Put(i*4096, int(i))
	}
	m.Reset()
	if m.Len() != 0 {
		t.Fatalf("Len after Reset = %d", m.Len())
	}
	if _, ok := m.Get(0); ok {
		t.Fatal("entry survived Reset")
	}
	m.Put(7, 7)
	if v, ok := m.Get(7); !ok || v != 7 {
		t.Fatal("map unusable after Reset")
	}
}

func BenchmarkMapGet(b *testing.B) {
	b.ReportAllocs()
	var m Map[uint64]
	for i := uint64(0); i < 1<<14; i++ {
		m.Put(i*128, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get(uint64(i%(1<<14)) * 128)
	}
}

func BenchmarkMapPutDelete(b *testing.B) {
	b.ReportAllocs()
	var m Map[uint64]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i%(1<<12)) * 128
		m.Put(k, uint64(i))
		if i%2 == 1 {
			m.Delete(k)
		}
	}
}

func BenchmarkBuiltinMapGet(b *testing.B) {
	b.ReportAllocs()
	m := map[uint64]uint64{}
	for i := uint64(0); i < 1<<14; i++ {
		m[i*128] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m[uint64(i%(1<<14))*128]
	}
}
