package serve

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// artName is an artifact name (the only kind the store accepts) for digest d.
func artName(d uint64) string { return fmt.Sprintf("%016x-profile.json", d) }

var nameA, nameB, nameC = artName(0xa), artName(0xb), artName(0xc)

func putBytes(t *testing.T, s *ArtifactStore, name string, b []byte) {
	t.Helper()
	err := s.Put(name, func(w io.Writer) error { _, err := w.Write(b); return err })
	if err != nil {
		t.Fatalf("put %s: %v", name, err)
	}
}

func getHit(t *testing.T, s *ArtifactStore, name string) []byte {
	t.Helper()
	b, ok, err := s.Get(name)
	if err != nil || !ok {
		t.Fatalf("get %s: ok=%v err=%v, want a hit", name, ok, err)
	}
	return b
}

// TestArtifactStoreLRUEviction: the byte bound evicts least-recently-used —
// and a Get refreshes recency, so the touched artifact survives the next Put.
func TestArtifactStoreLRUEviction(t *testing.T) {
	dir := t.TempDir()
	s, err := NewArtifactStore(dir, 100)
	if err != nil {
		t.Fatal(err)
	}
	blob := bytes.Repeat([]byte("x"), 40)
	putBytes(t, s, nameA, blob)
	putBytes(t, s, nameB, blob)
	// Touch a: b becomes the eviction candidate.
	getHit(t, s, nameA)
	// 120 bytes > 100: the put evicts b, not the just-touched a.
	putBytes(t, s, nameC, blob)

	if _, ok, err := s.Get(nameB); ok || err != nil {
		t.Fatalf("b after eviction: ok=%v err=%v, want a clean miss", ok, err)
	}
	if _, err := os.Stat(filepath.Join(dir, nameB)); !os.IsNotExist(err) {
		t.Fatalf("evicted artifact still on disk: %v", err)
	}
	if got := getHit(t, s, nameA); !bytes.Equal(got, blob) {
		t.Fatalf("a read back %d bytes, want %d", len(got), len(blob))
	}
	getHit(t, s, nameC)

	st := s.Stats()
	if st.Count != 2 || st.Bytes != 80 || st.Limit != 100 {
		t.Fatalf("stats after eviction: %+v", st)
	}
	if st.Puts != 3 || st.Evictions != 1 || st.Misses != 1 {
		t.Fatalf("counters: %+v", st)
	}
}

// TestArtifactStoreOversizedPutSurvives: an artifact bigger than the whole
// bound is never evicted by its own Put — the record the operator just asked
// for stays retrievable at least once.
func TestArtifactStoreOversizedPutSurvives(t *testing.T) {
	s, err := NewArtifactStore(t.TempDir(), 10)
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("y"), 64)
	putBytes(t, s, artName(0xb16), big)
	if got := getHit(t, s, artName(0xb16)); !bytes.Equal(got, big) {
		t.Fatal("oversized artifact not retrievable after its own put")
	}
	// The next put does evict it: the bound is real, just not retroactive
	// against the artifact being written.
	putBytes(t, s, artName(0x4e), []byte("z"))
	if _, ok, _ := s.Get(artName(0xb16)); ok {
		t.Fatal("oversized artifact survived a later put over the bound")
	}
	getHit(t, s, artName(0x4e))
}

// TestArtifactStoreRestart: SaveIndex + NewArtifactStore round-trips both the
// resident set and the LRU order, and entries whose backing file vanished are
// dropped individually rather than failing the load.
func TestArtifactStoreRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := NewArtifactStore(dir, 100)
	if err != nil {
		t.Fatal(err)
	}
	blob := bytes.Repeat([]byte("x"), 40)
	putBytes(t, s, nameA, blob)
	putBytes(t, s, nameB, blob)
	getHit(t, s, nameA) // LRU order after this: b is the candidate
	if err := s.SaveIndex(); err != nil {
		t.Fatal(err)
	}

	s2, err := NewArtifactStore(dir, 100)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Count != 2 || st.Bytes != 80 {
		t.Fatalf("restored stats: %+v", st)
	}
	if got := getHit(t, s2, nameB); !bytes.Equal(got, blob) {
		t.Fatal("restored store served wrong bytes")
	}
	// Recency survived the restart — but the Get above just touched b, so
	// now a is the candidate and the next over-bound put must evict a.
	putBytes(t, s2, nameC, blob)
	if _, ok, _ := s2.Get(nameA); ok {
		t.Fatal("restart lost the LRU order: a should have been the eviction candidate")
	}
	getHit(t, s2, nameB)

	// A vanished backing file drops only its own entry on the next load.
	if err := s2.SaveIndex(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, nameC)); err != nil {
		t.Fatal(err)
	}
	s3, err := NewArtifactStore(dir, 100)
	if err != nil {
		t.Fatal(err)
	}
	if st := s3.Stats(); st.Count != 1 || st.Bytes != 40 {
		t.Fatalf("stats after dropping the vanished entry: %+v", st)
	}
	getHit(t, s3, nameB)
}

// TestArtifactStoreCorruptIndex: a corrupt index is a loud error, not a
// silent fresh start — the operator moves it aside deliberately.
func TestArtifactStoreCorruptIndex(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, artifactIndexName), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := NewArtifactStore(dir, 0)
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupt index: %v, want a corrupt-index error", err)
	}
}

// TestArtifactStoreRewrite: re-putting a name replaces the entry and the
// byte accounting, never double-counting.
func TestArtifactStoreRewrite(t *testing.T) {
	s, err := NewArtifactStore(t.TempDir(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	putBytes(t, s, nameA, bytes.Repeat([]byte("x"), 40))
	putBytes(t, s, nameA, bytes.Repeat([]byte("y"), 25))
	if st := s.Stats(); st.Count != 1 || st.Bytes != 25 {
		t.Fatalf("stats after rewrite: %+v", st)
	}
	if got := getHit(t, s, nameA); len(got) != 25 || got[0] != 'y' {
		t.Fatalf("rewrite served stale bytes: %q", got)
	}
}
