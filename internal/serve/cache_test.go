package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pimdsm/internal/machine"
	"pimdsm/internal/sim"
	"pimdsm/internal/stats"
)

func fakeResult(exec int64) []byte {
	res := &machine.Result{Arch: machine.AGG, App: "fake"}
	res.Breakdown.Exec = sim.Time(exec)
	js, _ := canonicalResultJSON(res)
	return js
}

func TestCacheLRUBoundUnderRandomizedStorm(t *testing.T) {
	const bound = 32
	c := NewCache(bound)
	rng := rand.New(rand.NewSource(1))
	live := map[uint64]bool{}
	for i := 0; i < 4096; i++ {
		key := uint64(rng.Intn(256)) // enough reuse to exercise hits + evictions
		_, hit, _, owner := c.Acquire(key, "")
		if hit {
			live[key] = true
			continue
		}
		if !owner {
			t.Fatalf("no concurrency here, yet key %d is in flight", key)
		}
		c.Fulfill(key, ConfigSpec{Arch: "agg", App: "fake"}, fakeResult(int64(key)))
		if n := c.Len(); n > bound {
			t.Fatalf("after %d inserts cache holds %d > bound %d", i+1, n, bound)
		}
	}
	st := c.Stats()
	if st.Entries != bound {
		t.Fatalf("storm should leave a full cache: %d of %d", st.Entries, bound)
	}
	if st.Evictions == 0 || st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("storm exercised nothing: %+v", st)
	}
	if st.InFlight != 0 {
		t.Fatalf("%d flights leaked", st.InFlight)
	}
}

func TestCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := NewCache(3)
	put := func(k uint64) {
		if _, hit, _, owner := c.Acquire(k, ""); hit || !owner {
			t.Fatalf("Acquire(%d): hit=%v owner=%v", k, hit, owner)
		}
		c.Fulfill(k, ConfigSpec{}, fakeResult(int64(k)))
	}
	put(1)
	put(2)
	put(3)
	// Touch 1 so 2 becomes the LRU victim.
	if _, hit, _, _ := c.Acquire(1, ""); !hit {
		t.Fatal("1 should be cached")
	}
	put(4) // evicts 2
	if _, hit, _, _ := c.Acquire(2, ""); hit {
		t.Fatal("2 should have been evicted (LRU)")
	}
	c.Abort(2, errors.New("cleanup the flight the check above opened"))
	for _, k := range []uint64{1, 3, 4} {
		if _, hit, _, _ := c.Acquire(k, ""); !hit {
			t.Fatalf("%d should have survived", k)
		}
	}
	var got []uint64
	c.lru.each(func(e *entry) { got = append(got, e.key) })
	if !slices.Equal(got, []uint64{1, 3, 4}) {
		t.Fatalf("keys least to most recently used = %v, want [1 3 4]", got)
	}
}

func TestCacheSingleflightJoin(t *testing.T) {
	c := NewCache(8)
	_, hit, fl1, owner1 := c.Acquire(42, "")
	if hit || !owner1 {
		t.Fatalf("first acquire: hit=%v owner=%v", hit, owner1)
	}
	_, hit2, fl2, owner2 := c.Acquire(42, "")
	if hit2 || owner2 {
		t.Fatalf("second acquire should join: hit=%v owner=%v", hit2, owner2)
	}
	if fl1 != fl2 {
		t.Fatal("joiner got a different flight than the owner")
	}
	select {
	case <-fl2.done:
		t.Fatal("flight resolved before Fulfill")
	default:
	}
	js := fakeResult(1)
	c.Fulfill(42, ConfigSpec{}, js)
	<-fl2.done
	if fl2.err != nil || string(fl2.js) != string(js) {
		t.Fatalf("flight carries wrong result: %+v", fl2)
	}
	if st := c.Stats(); st.Joins != 1 || st.InFlight != 0 {
		t.Fatalf("stats after join: %+v", st)
	}
	// And the result is now a plain hit.
	if got, hitNow, _, _ := c.Acquire(42, ""); !hitNow || string(got) != string(js) {
		t.Fatal("fulfilled result not served as a hit")
	}
}

func TestCacheAbortPropagatesError(t *testing.T) {
	c := NewCache(8)
	_, _, _, owner := c.Acquire(7, "")
	if !owner {
		t.Fatal("expected ownership")
	}
	_, _, fl, _ := c.Acquire(7, "")
	boom := errors.New("boom")
	c.Abort(7, boom)
	<-fl.done
	if fl.err != boom {
		t.Fatalf("flight err = %v", fl.err)
	}
	// Nothing cached: the next acquire owns a fresh attempt.
	if _, hit, _, owner := c.Acquire(7, ""); hit || !owner {
		t.Fatalf("after abort: hit=%v owner=%v", hit, owner)
	}
}

func TestCacheSnapshotRoundTrip(t *testing.T) {
	c := NewCache(8)
	specs := []ConfigSpec{
		{Arch: "agg", App: "fft", Scale: 1, Threads: 8, Pressure: 0.75, DRatio: 1},
		{Arch: "numa", App: "ocean", Scale: 0.5, Threads: 4, Pressure: 0.25},
	}
	for _, sp := range specs {
		k := sp.Key()
		c.Acquire(k, "")
		res := &machine.Result{Arch: machine.Arch(sp.Arch), App: sp.App, Threads: sp.Threads,
			PerThread: make([]stats.Thread, sp.Threads)}
		res.Breakdown.Exec = 1000
		js, _ := canonicalResultJSON(res)
		c.Fulfill(k, sp, js)
	}
	idx := c.Snapshot()
	if len(idx.Entries) != 2 {
		t.Fatalf("snapshot: %+v", idx)
	}
	// A JSON round trip of the index preserves the result bytes exactly.
	blob, err := json.Marshal(idx)
	if err != nil {
		t.Fatal(err)
	}
	var back index
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	fresh := NewCache(8)
	if n := fresh.LoadIndex(&back); n != 2 {
		t.Fatalf("restored %d of 2", n)
	}
	for _, sp := range specs {
		k := sp.Key()
		js, hit, _, _ := fresh.Acquire(k, "")
		if !hit {
			t.Fatalf("%s/%s lost across round trip", sp.Arch, sp.App)
		}
		want := mustFindEntry(t, idx, k)
		if string(js) != string(want) {
			t.Fatalf("result bytes changed across persistence:\n  %s\nvs\n  %s", js, want)
		}
	}
}

func mustFindEntry(t *testing.T, idx *index, key uint64) []byte {
	t.Helper()
	for _, e := range idx.Entries {
		if e.Spec.Key() == key {
			return e.Result
		}
	}
	t.Fatalf("key %#x not in snapshot", key)
	return nil
}

// TestLoadIndexVerifiesKeys: a tampered entry, or one keyed under another
// KeyVersion, is dropped, never served under a wrong key.
func TestLoadIndexVerifiesKeys(t *testing.T) {
	sp := ConfigSpec{Arch: "agg", App: "fft", Scale: 1, Threads: 8, Pressure: 0.75, DRatio: 1}
	res := &machine.Result{Arch: machine.AGG, App: "fft", Threads: 8, PerThread: make([]stats.Thread, 8)}
	res.Breakdown.Exec = 1000
	js, _ := canonicalResultJSON(res)
	good := indexEntry{Key: keyHex(sp.Key()), Spec: sp, Result: js}
	tampered := good
	tampered.Spec.Threads = 16 // result no longer matches the claimed key
	badKey := good
	badKey.Key = "deadbeefdeadbeef"
	idx := &index{Entries: []indexEntry{good, tampered, badKey}}
	c := NewCache(8)
	if n := c.LoadIndex(idx); n != 1 {
		t.Fatalf("restored %d entries, want only the verified one", n)
	}
	if _, hit, _, _ := c.Acquire(sp.Key(), ""); !hit {
		t.Fatal("verified entry missing")
	}
	// A cache file written by a daemon whose keys hash another KeyVersion
	// has a format this daemon reads, so New succeeds, but no entry's key
	// re-derives: nothing is restored.
	stale := good
	stale.Key = keyHex(sp.keyAt(KeyVersion + 1))
	path := filepath.Join(t.TempDir(), "cache.json")
	if err := save(path, cacheIndexVersion, &index{Entries: []indexEntry{stale}}); err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{CachePath: path})
	if err != nil {
		t.Fatalf("New over a KeyVersion-skewed index: %v", err)
	}
	if n := s.Cache().Len(); n != 0 {
		t.Fatalf("KeyVersion-skewed index restored %d entries", n)
	}
}

// TestLoadCacheFileOfSeededKeys: a cache file written while keys still took
// a seed restores every entry keyed with the seed 0 that its writer omitted,
// under the same keys, and skips an entry keyed with seed 7, whose key no
// longer re-derives from its spec.
func TestLoadCacheFileOfSeededKeys(t *testing.T) {
	type seededEntry struct {
		Key    string          `json:"key"`
		Seed   uint64          `json:"seed,omitempty"`
		Spec   ConfigSpec      `json:"spec"`
		Result json.RawMessage `json:"result"`
	}
	result := func(sp ConfigSpec) []byte {
		res := &machine.Result{Arch: machine.Arch(sp.Arch), App: sp.App, Threads: sp.Threads,
			PerThread: make([]stats.Thread, sp.Threads)}
		res.Breakdown.Exec = 1000
		js, _ := canonicalResultJSON(res)
		return js
	}
	numa := ConfigSpec{Arch: "numa", App: "fft", Scale: 1.0, Threads: 32, Pressure: 0.75}
	agg := ConfigSpec{Arch: "agg", App: "fft", Scale: 1.0, Threads: 32, Pressure: 0.75, DRatio: 1}
	ocean := ConfigSpec{Arch: "agg", App: "ocean", Scale: 0.5, Threads: 16, Pressure: 0.25, DRatio: 2}
	file, err := json.Marshal(struct {
		Version int           `json:"version"`
		Entries []seededEntry `json:"entries"`
	}{1, []seededEntry{
		{Key: "be307a4db1904cbd", Spec: numa, Result: result(numa)},
		{Key: "64fc84615db634a1", Seed: 7, Spec: ocean, Result: result(ocean)},
		{Key: "e076f3f61cf24050", Spec: agg, Result: result(agg)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cache.json")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{CachePath: path})
	if err != nil {
		t.Fatal(err)
	}
	if n := s.Cache().Len(); n != 2 {
		t.Fatalf("restored %d entries, want the 2 unseeded ones", n)
	}
	for key, sp := range map[uint64]ConfigSpec{0xbe307a4db1904cbd: numa, 0xe076f3f61cf24050: agg} {
		if js, hit := s.Cache().Peek(key, ""); !hit || !bytes.Equal(js, result(sp)) {
			t.Errorf("%s/%s: served %.60q (resident %v) under %016x", sp.Arch, sp.App, js, hit, key)
		}
	}
	if s.Cache().Contains(0x64fc84615db634a1) || s.Cache().Contains(ocean.Key()) {
		t.Error("the entry keyed with seed 7 was restored")
	}
}

func keyHex(k uint64) string { return fmt.Sprintf("%016x", k) }

// TestCacheHitZeroAlloc: a hit moves its entry to the front of the LRU list
// and counts itself without allocating; PeekAll allocates only the slice
// it returns.
func TestCacheHitZeroAlloc(t *testing.T) {
	c := NewCache(8)
	keys := []uint64{1, 2, 3}
	for _, k := range keys {
		c.Acquire(k, "")
		c.Fulfill(k, ConfigSpec{}, fakeResult(int64(k)))
	}
	i := 0
	next := func() uint64 { i++; return keys[i%len(keys)] }
	if a := testing.AllocsPerRun(100, func() { c.Acquire(next(), "acme") }); a != 0 {
		t.Errorf("Acquire hit allocates %.0f times", a)
	}
	if a := testing.AllocsPerRun(100, func() { c.Peek(next(), "acme") }); a != 0 {
		t.Errorf("Peek hit allocates %.0f times", a)
	}
	if a := testing.AllocsPerRun(100, func() { c.PeekAll(keys, "acme") }); a != 1 {
		t.Errorf("PeekAll hit allocates %.0f times, want 1", a)
	}
}
