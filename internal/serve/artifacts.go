package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"pimdsm/internal/obs"
)

// ArtifactStore is the flight recorder's bounded on-disk home: telemetry
// artifacts (profile snapshots, folded flamegraphs, span decompositions) are
// written atomically next to the result cache and evicted least-recently-used
// by total byte size. Like the result cache, the store persists its index on
// Shutdown and restores it in New, so a restarted daemon still serves the
// flight records of every job whose configurations it has seen — artifact
// names are content addresses (config keys + seed), not job ids, exactly so
// they outlive the job table.
type ArtifactStore struct {
	dir   string
	limit int64

	mu      sync.Mutex
	entries map[string]*artEntry
	// LRU list: head is most recently used, tail is the eviction candidate.
	head, tail *artEntry
	bytes      int64

	metrics *metrics // puts, hits, misses and evictions count here
}

type artEntry struct {
	name       string
	size       int64
	prev, next *artEntry
}

// artifactIndexName is the store's persisted index, living inside the
// artifact directory itself (the store owns the directory).
const artifactIndexName = "artifacts.index.json"

// artifactIndex is the persisted form: entries least to most recently used,
// the same convention as the result cache index.
type artifactIndex struct {
	Version int             `json:"version"`
	Entries []artIndexEntry `json:"entries"`
}

type artIndexEntry struct {
	Name string `json:"name"`
	Size int64  `json:"size"`
}

// NewArtifactStore opens (creating if needed) the store at dir with the
// given byte bound. A missing index is a fresh start; a corrupt one is an
// error (move it aside deliberately). Index entries whose backing file is
// missing or has changed size are dropped individually, not fatally. The
// store counts into a metrics registry of its own; the Server's store
// counts into the Server's.
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
	s := &ArtifactStore{dir: dir, limit: limit, entries: make(map[string]*artEntry), metrics: m}
	if err := s.loadIndex(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's directory.
func (s *ArtifactStore) Dir() string { return s.dir }

func (s *ArtifactStore) loadIndex() error {
	f, err := os.Open(filepath.Join(s.dir, artifactIndexName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer f.Close()
	var idx artifactIndex
	if err := json.NewDecoder(f).Decode(&idx); err != nil {
		return fmt.Errorf("serve: artifact index in %s is corrupt: %w", s.dir, err)
	}
	for _, e := range idx.Entries {
		fi, err := os.Stat(filepath.Join(s.dir, e.Name))
		if err != nil || fi.Size() != e.Size {
			continue // artifact vanished or was truncated; forget it
		}
		s.insertMRU(&artEntry{name: e.Name, size: e.Size})
		s.bytes += e.Size
	}
	return nil
}

// SaveIndex persists the LRU order atomically, mirroring the result cache's
// crash-safe index write.
func (s *ArtifactStore) SaveIndex() error {
	s.mu.Lock()
	idx := artifactIndex{Version: 1}
	for e := s.tail; e != nil; e = e.prev {
		idx.Entries = append(idx.Entries, artIndexEntry{Name: e.name, Size: e.size})
	}
	s.mu.Unlock()
	err := obs.WriteFileAtomic(filepath.Join(s.dir, artifactIndexName), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(idx)
	})
	if err != nil {
		return fmt.Errorf("serve: save artifact index: %w", err)
	}
	return nil
}

// insertMRU links e at the head. Caller holds s.mu (or is single-threaded
// setup).
func (s *ArtifactStore) insertMRU(e *artEntry) {
	s.entries[e.name] = e
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *ArtifactStore) unlink(e *artEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *ArtifactStore) touch(e *artEntry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

// Put writes one artifact atomically and inserts it most-recently-used, then
// evicts from the tail until the store is back under its byte bound. The
// artifact just written is never evicted by its own Put, even when it alone
// exceeds the bound — a flight record the operator asked for is always
// retrievable at least once.
func (s *ArtifactStore) Put(name string, write func(io.Writer) error) error {
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
		s.bytes -= old.size
		s.unlink(old)
		delete(s.entries, name)
	}
	e := &artEntry{name: name, size: fi.Size()}
	s.insertMRU(e)
	s.bytes += e.size
	s.metrics.artPuts.Inc()
	for s.bytes > s.limit && s.tail != nil && s.tail != e {
		victim := s.tail
		s.unlink(victim)
		delete(s.entries, victim.name)
		s.bytes -= victim.size
		s.metrics.artEvictions.Inc()
		os.Remove(filepath.Join(s.dir, victim.name))
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
	s.touch(e)
	s.mu.Unlock()

	b, err := os.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		s.mu.Lock()
		if cur, still := s.entries[name]; still && cur == e {
			s.unlink(cur)
			delete(s.entries, name)
			s.bytes -= cur.size
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

// ArtifactInfo is one resident artifact, for listings.
type ArtifactInfo struct {
	Name string `json:"name"`
	Size int64  `json:"size"`
}

// List returns resident artifacts most to least recently used.
func (s *ArtifactStore) List() []ArtifactInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ArtifactInfo, 0, len(s.entries))
	for e := s.head; e != nil; e = e.next {
		out = append(out, ArtifactInfo{Name: e.name, Size: e.size})
	}
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
