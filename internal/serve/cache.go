package serve

import (
	"encoding/json"
	"fmt"
	"sync"

	"pimdsm/internal/cluster"
	"pimdsm/internal/hashmap"
	"pimdsm/internal/machine"
)

// entry is one cached result, held on the cache's LRU list: its key, its
// spec and its canonical bytes, the byte-identity the API serves.
type entry struct {
	key  uint64
	spec ConfigSpec
	js   []byte
}

// flight is one in-progress simulation of a key. The owning job resolves it
// exactly once; every other job wanting the same key blocks on done instead
// of simulating again (singleflight).
type flight struct {
	done chan struct{}
	js   []byte
	err  error
}

// Cache is the content-addressed result store: an open-addressed index
// (internal/hashmap) over an LRU list bounded to max entries, plus
// the in-flight registry that collapses duplicate work. It counts its hits,
// misses and joins, by the caller's tenant, and its evictions into the
// metrics registry it was built with.
type Cache struct {
	mu       sync.Mutex
	max      int
	m        hashmap.Map[*lruItem[entry]]
	inflight hashmap.Map[*flight]
	lru      lru[entry]

	metrics *metrics
}

// NewCache returns a cache bounded to max entries (min 1), counting into a
// registry of its own.
func NewCache(max int) *Cache { return newCache(max, newMetrics(nil)) }

func newCache(max int, m *metrics) *Cache {
	if max < 1 {
		max = 1
	}
	return &Cache{max: max, metrics: m}
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Len()
}

// Acquire resolves key in one atomic step. Exactly one of three outcomes:
//
//   - cache hit: js returned, hit=true;
//   - join: another job is already simulating this key — fl is its flight,
//     owner=false; wait on fl.done, then read fl.js/fl.err;
//   - own: the caller must simulate and then call Fulfill or Abort — fl is
//     the caller's own flight, owner=true.
//
// The outcome is counted once, as a hit, join or miss of tenant ("" for
// anonymous and peer traffic).
func (c *Cache) Acquire(key uint64, tenant string) (js []byte, hit bool, fl *flight, owner bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m.Get(key); ok {
		c.metrics.hits.With(tenant).Inc()
		c.lru.toFront(e)
		return e.v.js, true, nil, false
	}
	if f, ok := c.inflight.Get(key); ok {
		c.metrics.joins.With(tenant).Inc()
		return nil, false, f, false
	}
	c.metrics.misses.With(tenant).Inc()
	f := &flight{done: make(chan struct{})}
	c.inflight.Put(key, f)
	return nil, false, f, true
}

// Peek returns the cached result for key without starting a flight: a hit
// counts (and refreshes LRU recency) like Acquire's, but a miss moves no
// counters and registers no in-flight work. Cluster routing uses it to ask
// "can this node answer right now?" before forwarding to the owner.
func (c *Cache) Peek(key uint64, tenant string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m.Get(key); ok {
		c.metrics.hits.With(tenant).Inc()
		c.lru.toFront(e)
		return e.v.js, true
	}
	return nil, false
}

// PeekAll resolves every key under one lock, all or nothing: when all are
// cached it counts a hit of tenant for each, refreshes their LRU recency and
// returns the results in key order; when any is missing it counts and
// touches nothing, so the job that later resolves the batch counts each key
// once.
func (c *Cache) PeekAll(keys []uint64, tenant string) ([][]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range keys {
		if _, ok := c.m.Get(k); !ok {
			return nil, false
		}
	}
	js := make([][]byte, len(keys))
	for i, k := range keys {
		e, _ := c.m.Get(k)
		c.lru.toFront(e)
		js[i] = e.v.js
	}
	c.metrics.hits.With(tenant).Add(uint64(len(keys)))
	return js, true
}

// Contains reports residency without touching counters or recency — a pure
// read for redirect decisions.
func (c *Cache) Contains(key uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.m.Get(key)
	return ok
}

// needsRun reports whether resolving keys here would start a simulation: a
// key node owns (any, when nil) is neither cached nor in flight. A pure read.
func (c *Cache) needsRun(keys []uint64, node *cluster.Node) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range keys {
		_, hit := c.m.Get(k)
		_, join := c.inflight.Get(k)
		if !hit && !join && owns(node, k) {
			return true
		}
	}
	return false
}

// Fulfill resolves the caller-owned flight for key with a result's canonical
// bytes and inserts them into the cache, evicting from the LRU tail past the
// bound.
func (c *Cache) Fulfill(key uint64, spec ConfigSpec, js []byte) {
	c.mu.Lock()
	if f, ok := c.inflight.Get(key); ok {
		f.js = js
		c.inflight.Delete(key)
		defer close(f.done)
	}
	c.insert(key, spec, js)
	c.mu.Unlock()
}

// Abort resolves the caller-owned flight for key with an error; nothing is
// cached, so a later submission retries the simulation.
func (c *Cache) Abort(key uint64, err error) {
	c.mu.Lock()
	if f, ok := c.inflight.Get(key); ok {
		f.err = err
		c.inflight.Delete(key)
		defer close(f.done)
	}
	c.mu.Unlock()
}

// insert adds (or refreshes) an entry. Caller holds mu.
func (c *Cache) insert(key uint64, spec ConfigSpec, js []byte) {
	if e, ok := c.m.Get(key); ok {
		e.v.js = js
		c.lru.toFront(e)
		return
	}
	e := &lruItem[entry]{v: entry{key: key, spec: spec, js: js}}
	c.m.Put(key, e)
	c.lru.toFront(e)
	for c.m.Len() > c.max {
		c.m.Delete(c.lru.popOldest().v.key)
		c.metrics.evictions.Inc()
	}
}

// CacheStats is a counters snapshot; the counters are the registry's sums
// over tenants.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Limit     int    `json:"limit"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Joins     uint64 `json:"singleflight_joins"`
	Evictions uint64 `json:"evictions"`
	InFlight  int    `json:"in_flight"`
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.m.Len(),
		Limit:     c.max,
		Hits:      c.metrics.hits.Sum(),
		Misses:    c.metrics.misses.Sum(),
		Joins:     c.metrics.joins.Sum(),
		Evictions: c.metrics.evictions.Value(),
		InFlight:  c.inflight.Len(),
	}
}

// canonicalResultJSON is the one serialization every byte-identity claim in
// the service refers to: encoding/json with sorted map keys, no indentation.
func canonicalResultJSON(res *machine.Result) ([]byte, error) {
	return json.Marshal(res)
}

// ingestResult re-derives the canonical bytes of a result that arrived from
// outside this process: a persisted index entry, a peer's compute reply or
// a replica. The API serves cached bytes verbatim, so they must be
// canonicalized here, once, rather than trusted as they came — an indented
// or padded copy would otherwise reach clients unnormalized. The result must
// also be one that running cs can produce (machine.Result.CheckFor): a null
// or empty object decodes without error but is no result at all. The
// decoded result is dropped once its bytes are made.
func ingestResult(raw []byte, cs ConfigSpec) ([]byte, error) {
	var res *machine.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, err
	}
	if err := res.CheckFor(cs.Config()); err != nil {
		return nil, err
	}
	return canonicalResultJSON(res)
}

// indexEntry is the persisted form of one cache entry.
type indexEntry struct {
	Key    string          `json:"key"` // hex; recomputed and verified on load
	Spec   ConfigSpec      `json:"spec"`
	Result json.RawMessage `json:"result"`
}

// cacheIndexVersion is the cache file's format version. Key skew needs no
// version of its own: LoadIndex re-derives every entry's key, and the
// derivation hashes KeyVersion, so an entry keyed under another KeyVersion
// is skipped like any other mismatch.
const cacheIndexVersion = 1

// index is the persisted cache file.
type index struct {
	fileVersion
	Entries []indexEntry `json:"entries"` // least to most recently used
}

// Snapshot serializes the cache index (least to most recently used, so a
// load replays into the same LRU order).
func (c *Cache) Snapshot() *index {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx := &index{}
	c.lru.each(func(e *entry) {
		idx.Entries = append(idx.Entries, indexEntry{
			Key:    fmt.Sprintf("%016x", e.key),
			Spec:   e.spec,
			Result: json.RawMessage(e.js),
		})
	})
	return idx
}

// LoadIndex replays a persisted index into the cache. Entries whose stored
// key does not match the current derivation (KeyVersion skew, a key an older
// daemon derived with a nonzero seed, hand-edited file) or whose result
// running the spec could not produce are skipped, not
// served: the key contract is verified, never trusted. Returns how many
// entries were restored.
func (c *Cache) LoadIndex(idx *index) int {
	n := 0
	for _, ie := range idx.Entries {
		want := ie.Spec.Key()
		if fmt.Sprintf("%016x", want) != ie.Key {
			continue
		}
		js, err := ingestResult(ie.Result, ie.Spec)
		if err != nil {
			continue
		}
		c.mu.Lock()
		c.insert(want, ie.Spec, js)
		c.mu.Unlock()
		n++
	}
	return n
}
