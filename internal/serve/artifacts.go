package serve

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"pimdsm/internal/obs"
)

// ArtifactStore is the flight recorder's bounded on-disk home: telemetry
// artifacts (profile snapshots, folded flamegraphs, span decompositions) are
// written atomically next to the result cache and evicted least-recently-used
// by total byte size. Like the result cache, the store persists its index on
// Shutdown and restores it in New, so a restarted daemon still serves the
// flight records of every job whose configurations it has seen — artifact
// names are content addresses (config keys), not job ids, exactly so
// they outlive the job table.
type ArtifactStore struct {
	dir   string
	limit int64

	mu      sync.Mutex
	entries map[string]*lruItem[ArtifactInfo]
	lru     lru[ArtifactInfo]
	bytes   int64

	metrics *metrics // puts, hits, misses and evictions count here
}

// artifactIndexName is the store's persisted index, living inside the
// artifact directory itself (the store owns the directory).
const artifactIndexName = "artifacts.index.json"

// artifactIndexVersion is the artifact index's format version.
const artifactIndexVersion = 1

// artifactIndex is the persisted form: entries least to most recently used,
// the same convention as the result cache index.
type artifactIndex struct {
	fileVersion
	Entries []ArtifactInfo `json:"entries"`
}

// isArtifactName reports whether name has the form artifactName gives: a
// 16-digit hex digest, a dash and one kind's file. These are the only names
// the store writes, restores, serves or removes, so no name can reach a
// file outside the directory or the index itself.
func isArtifactName(name string) bool {
	digest, file, _ := strings.Cut(name, "-")
	if len(digest) != 16 || strings.Trim(digest, "0123456789abcdef") != "" {
		return false
	}
	for _, kind := range []string{ArtifactProfile, ArtifactFolded, ArtifactDecompose} {
		if f, _ := artifactFile(kind); file == f {
			return true
		}
	}
	return false
}

// NewArtifactStore opens (creating if needed) the store at dir with the
// given byte bound, restoring its index (persist.go's policy). An index
// entry is dropped unless its name is an artifact name seen once and its
// file is a regular file of the recorded size. The store counts into a
// metrics registry of its own; the Server's store counts into the Server's.
func NewArtifactStore(dir string, limit int64) (*ArtifactStore, error) {
	return openArtifactStore(dir, limit, newMetrics(nil))
}

func openArtifactStore(dir string, limit int64, m *metrics) (*ArtifactStore, error) {
	if limit <= 0 {
		limit = 64 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: artifact dir: %w", err)
	}
	s := &ArtifactStore{dir: dir, limit: limit, entries: make(map[string]*lruItem[ArtifactInfo]), metrics: m}
	var idx artifactIndex
	if err := load(filepath.Join(dir, artifactIndexName), artifactIndexVersion, &idx); err != nil {
		return nil, err
	}
	for _, e := range idx.Entries {
		if !isArtifactName(e.Name) || s.entries[e.Name] != nil {
			continue
		}
		fi, err := os.Lstat(filepath.Join(s.dir, e.Name))
		if err != nil || !fi.Mode().IsRegular() || fi.Size() != e.Size {
			continue // artifact vanished, was truncated or replaced; forget it
		}
		s.insert(e)
	}
	return s, nil
}

// Dir returns the store's directory.
func (s *ArtifactStore) Dir() string { return s.dir }

// SaveIndex persists the LRU order.
func (s *ArtifactStore) SaveIndex() error {
	s.mu.Lock()
	var idx artifactIndex
	s.lru.each(func(e *ArtifactInfo) { idx.Entries = append(idx.Entries, *e) })
	s.mu.Unlock()
	return save(filepath.Join(s.dir, artifactIndexName), artifactIndexVersion, &idx)
}

// insert links a most recently used entry. Caller holds s.mu (or is
// single-threaded setup).
func (s *ArtifactStore) insert(a ArtifactInfo) *lruItem[ArtifactInfo] {
	e := &lruItem[ArtifactInfo]{v: a}
	s.entries[a.Name] = e
	s.lru.toFront(e)
	s.bytes += a.Size
	return e
}

// remove drops e from the index, the list and the byte count. Caller holds
// s.mu.
func (s *ArtifactStore) remove(e *lruItem[ArtifactInfo]) {
	s.lru.unlink(e)
	delete(s.entries, e.v.Name)
	s.bytes -= e.v.Size
}

// Put writes one artifact atomically and inserts it most-recently-used, then
// evicts from the tail until the store is back under its byte bound. The
// artifact just written is never evicted by its own Put, even when it alone
// exceeds the bound — a flight record the operator asked for is always
// retrievable at least once.
func (s *ArtifactStore) Put(name string, write func(io.Writer) error) error {
	if !isArtifactName(name) {
		return fmt.Errorf("serve: %q is not an artifact name", name)
	}
	path := filepath.Join(s.dir, name)
	if err := obs.WriteFileAtomic(path, write); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[name]; ok {
		s.remove(old)
	}
	e := s.insert(ArtifactInfo{Name: name, Size: fi.Size()})
	s.metrics.artPuts.Inc()
	for s.bytes > s.limit && s.lru.oldest() != e {
		victim := s.lru.oldest()
		s.remove(victim)
		s.metrics.artEvictions.Inc()
		os.Remove(filepath.Join(s.dir, victim.v.Name))
	}
	return nil
}

// Get returns an artifact's bytes, marking it most recently used. A name the
// store does not know (never written, or evicted) is a miss, not an error;
// a file that fails to read drops its entry and counts as a miss too.
func (s *ArtifactStore) Get(name string) ([]byte, bool, error) {
	s.mu.Lock()
	e, ok := s.entries[name]
	if !ok {
		s.mu.Unlock()
		s.metrics.artMisses.Inc()
		return nil, false, nil
	}
	s.lru.toFront(e)
	s.mu.Unlock()

	b, err := os.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		s.mu.Lock()
		if s.entries[name] == e {
			s.remove(e)
		}
		s.mu.Unlock()
		s.metrics.artMisses.Inc()
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, err
	}
	s.metrics.artHits.Inc()
	return b, true, nil
}

// ArtifactInfo is one resident artifact: a row of List, an entry of the
// persisted index and the value the store's LRU list holds.
type ArtifactInfo struct {
	Name string `json:"name"`
	Size int64  `json:"size"`
}

// List returns resident artifacts most to least recently used.
func (s *ArtifactStore) List() []ArtifactInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ArtifactInfo, 0, len(s.entries))
	s.lru.each(func(e *ArtifactInfo) { out = append(out, *e) })
	slices.Reverse(out)
	return out
}

// ArtifactStats is the store's counter snapshot.
type ArtifactStats struct {
	Count     int    `json:"count"`
	Bytes     int64  `json:"bytes"`
	Limit     int64  `json:"limit"`
	Puts      uint64 `json:"puts"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// Stats snapshots the store counters.
func (s *ArtifactStore) Stats() ArtifactStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ArtifactStats{
		Count:     len(s.entries),
		Bytes:     s.bytes,
		Limit:     s.limit,
		Puts:      s.metrics.artPuts.Value(),
		Hits:      s.metrics.artHits.Value(),
		Misses:    s.metrics.artMisses.Value(),
		Evictions: s.metrics.artEvictions.Value(),
	}
}
