package sim

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// oracleResource is the unpruned busy calendar: Resource's Acquire and Block
// as they were before floor pruning, kept verbatim as the reference the
// floor-attached calendar must match call for call.
type oracleResource struct {
	iv        []interval
	busy      Time
	acquires  uint64
	waited    Time
	coalesced int // times the maxIntervals bound fired
}

func (r *oracleResource) Acquire(now, hold Time) (start Time) {
	r.acquires++
	r.busy += hold
	n := len(r.iv)
	if n == 0 || now >= r.iv[n-1].e {
		if hold > 0 {
			if n > 0 && r.iv[n-1].e == now {
				r.iv[n-1].e = now + hold
			} else {
				r.iv = append(r.iv, interval{now, now + hold})
			}
		}
		return now
	}
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.iv[mid].e > now {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	start = now
	i := lo
	for ; i < n; i++ {
		if r.iv[i].s >= start+hold {
			break
		}
		if r.iv[i].e > start {
			start = r.iv[i].e
		}
	}
	r.waited += start - now
	if hold == 0 {
		return start
	}
	e := start + hold
	prevAbuts := i > 0 && r.iv[i-1].e == start
	nextAbuts := i < n && r.iv[i].s == e
	switch {
	case prevAbuts && nextAbuts:
		r.iv[i-1].e = r.iv[i].e
		r.iv = append(r.iv[:i], r.iv[i+1:]...)
	case prevAbuts:
		r.iv[i-1].e = e
	case nextAbuts:
		r.iv[i].s = start
	default:
		r.iv = append(r.iv, interval{})
		copy(r.iv[i+1:], r.iv[i:])
		r.iv[i] = interval{start, e}
	}
	if len(r.iv) > maxIntervals {
		half := len(r.iv) / 2
		r.iv[half-1] = interval{r.iv[0].s, r.iv[half-1].e}
		r.iv = r.iv[half-1:]
		r.coalesced++
	}
	return start
}

func (r *oracleResource) Block(from, to Time) {
	if to <= from {
		return
	}
	r.busy += to - from
	lo := sort.Search(len(r.iv), func(i int) bool { return r.iv[i].e >= from })
	hi := lo
	for hi < len(r.iv) && r.iv[hi].s <= to {
		if r.iv[hi].s < from {
			from = r.iv[hi].s
		}
		if r.iv[hi].e > to {
			to = r.iv[hi].e
		}
		hi++
	}
	if lo == hi {
		r.iv = append(r.iv, interval{})
		copy(r.iv[lo+1:], r.iv[lo:])
		r.iv[lo] = interval{from, to}
		return
	}
	r.iv[lo] = interval{from, to}
	r.iv = append(r.iv[:lo+1], r.iv[hi:]...)
}

func (r *oracleResource) QueueDepth(at Time) int {
	return len(r.iv) - sort.Search(len(r.iv), func(i int) bool { return r.iv[i].e > at })
}

func (r *oracleResource) FreeAt() Time {
	if len(r.iv) == 0 {
		return 0
	}
	return r.iv[len(r.iv)-1].e
}

// floorPair drives a floor-attached Resource and the oracle with the same
// calls and fails on the first observable difference.
type floorPair struct {
	tb    testing.TB
	floor Time
	r     Resource
	o     oracleResource
	calls int

	// Coalescings seen, by what the oldest half held: only dropped
	// intervals, or also intervals still in the array — and of those, the
	// ones whose block had to start at a dropped interval (head).
	allDropped, reachLive, reachLiveFromDropped int
}

func newFloorPair(tb testing.TB) *floorPair {
	p := &floorPair{tb: tb}
	p.r.SetFloor(&p.floor)
	return p
}

func (p *floorPair) acquire(now, hold Time) {
	p.tb.Helper()
	p.calls++
	droppedBefore, coalescedBefore := p.r.dropped, p.o.coalesced
	got, want := p.r.Acquire(now, hold), p.o.Acquire(now, hold)
	if got != want {
		p.tb.Fatalf("call %d: Acquire(%d, %d) at floor %d = %d, oracle %d", p.calls, now, hold, p.floor, got, want)
	}
	coalesced := p.o.coalesced != coalescedBefore
	if coalesced {
		switch {
		case p.r.dropped > 0:
			p.allDropped++
		case droppedBefore > 0:
			p.reachLive++
			p.reachLiveFromDropped++
		default:
			p.reachLive++
		}
	}
	p.check(now, coalesced)
}

func (p *floorPair) block(from, to Time) {
	p.tb.Helper()
	p.calls++
	p.r.Block(from, to)
	p.o.Block(from, to)
	p.check(from, false)
}

// check compares everything a caller can observe, at the floor and at a.
// Every 64th call and after every coalescing it also compares the calendars
// themselves: the floor-attached one must be the oracle's with a prefix of
// dropped intervals cut off.
func (p *floorPair) check(a Time, full bool) {
	p.tb.Helper()
	for _, at := range []Time{p.floor, a} {
		if got, want := p.r.QueueDepth(at), p.o.QueueDepth(at); got != want {
			p.tb.Fatalf("call %d: QueueDepth(%d) = %d, oracle %d", p.calls, at, got, want)
		}
	}
	if got, want := p.r.FreeAt(), p.o.FreeAt(); got != want {
		p.tb.Fatalf("call %d: FreeAt = %d, oracle %d", p.calls, got, want)
	}
	b, n, w := p.r.Utilization()
	if b != p.o.busy || n != p.o.acquires || w != p.o.waited {
		p.tb.Fatalf("call %d: Utilization = (%d,%d,%d), oracle (%d,%d,%d)", p.calls, b, n, w, p.o.busy, p.o.acquires, p.o.waited)
	}
	if !full && p.calls%64 != 0 {
		return
	}
	d := len(p.o.iv) - len(p.r.iv)
	if d != p.r.dropped || !slices.Equal(p.o.iv[d:], p.r.iv) {
		p.tb.Fatalf("call %d: calendar (%d dropped + %d) is not a suffix of the oracle's %d intervals", p.calls, p.r.dropped, len(p.r.iv), len(p.o.iv))
	}
	if d > 0 && (p.o.iv[0].s != p.r.head || p.o.iv[d-1].e >= p.floor) {
		p.tb.Fatalf("call %d: dropped prefix wrong: head %d vs %d, last dropped ends %d at floor %d", p.calls, p.r.head, p.o.iv[0].s, p.o.iv[d-1].e, p.floor)
	}
}

// TestResourceFloorMatchesOracle drives random request streams under a
// random nondecreasing floor. Phases alternate between a floor that trails
// the requests closely (most intervals get dropped) and a frozen floor under
// requests spread wide (the live calendar grows past the coalescing bound),
// so both kinds of coalescing happen.
func TestResourceFloorMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newFloorPair(t)
		for phase := 0; phase < 12; phase++ {
			trailing := phase%2 == 0
			calls, window := 6000+rng.Intn(8000), Time(64+rng.Intn(512))
			if !trailing {
				calls, window = 2000+rng.Intn(4000), 1<<22
			}
			for i := 0; i < calls; i++ {
				now := p.floor + Time(rng.Int63n(int64(window)))
				if rng.Intn(32) == 0 {
					p.block(now, now+Time(rng.Intn(48)))
				} else {
					p.acquire(now, Time(rng.Intn(5)))
				}
				if trailing {
					p.floor += Time(rng.Intn(16))
				}
			}
			// Move the floor past the far end of the calendar sometimes: all
			// but the last interval become droppable at once.
			if rng.Intn(3) == 0 {
				p.floor = p.o.FreeAt() + Time(rng.Intn(4))
			}
		}
		if p.allDropped == 0 || p.reachLiveFromDropped == 0 {
			t.Fatalf("seed %d: coalescing not exercised both ways: %d all-dropped, %d reaching live (%d from a dropped start)",
				seed, p.allDropped, p.reachLive, p.reachLiveFromDropped)
		}
		t.Logf("seed %d: %d calls, %d all-dropped and %d reaching-live coalescings (%d from a dropped start)",
			seed, p.calls, p.allDropped, p.reachLive, p.reachLiveFromDropped)
	}
}

// FuzzResourceFloor is the differential test's fuzz twin. Each 3-byte op is
// an Acquire, a Block, a floor advance of a<<b, or a burst of 1024 acquires
// spread over 2^20 cycles past the floor (a few bursts cross the coalescing
// bound).
func FuzzResourceFloor(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p := newFloorPair(t)
		for ; len(data) >= 3; data = data[3:] {
			a, b := Time(data[1]), Time(data[2])
			switch data[0] % 4 {
			case 0:
				p.acquire(p.floor+3*a, b%8)
			case 1:
				p.block(p.floor+a, p.floor+a+b%32)
			case 2:
				p.floor += a << (b % 24)
			case 3:
				x := uint64(a)<<8 | uint64(b)
				for i := 0; i < 1024; i++ {
					x = x*6364136223846793005 + 1442695040888963407
					p.acquire(p.floor+Time(x>>44), Time(x>>40&3))
				}
			}
		}
	})
}

// TestResourceFloorKeepsLast: once the floor passes the whole calendar,
// compaction still keeps the last interval, so FreeAt stays exact even
// through calls that reserve nothing.
func TestResourceFloorKeepsLast(t *testing.T) {
	p := newFloorPair(t)
	for i := Time(0); i < 64; i++ {
		p.acquire(10*i, 3)
	}
	p.floor = p.o.FreeAt() + 100
	p.r.iv = p.r.iv[:len(p.r.iv):len(p.r.iv)] // full: the next call compacts
	p.acquire(p.floor, 0)
	p.block(p.floor+1, p.floor+1)
	if len(p.r.iv) != 1 || p.r.dropped != 63 {
		t.Fatalf("after compaction: %d intervals kept, %d dropped; want 1 and 63", len(p.r.iv), p.r.dropped)
	}
}

func TestResourceBelowFloorPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(r *Resource)
	}{
		{"Acquire", func(r *Resource) { r.Acquire(99, 1) }},
		{"Block", func(r *Resource) { r.Block(99, 120) }},
	} {
		floor := Time(100)
		var r Resource
		r.SetFloor(&floor)
		r.Acquire(100, 5)
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "below the floor") {
					t.Errorf("%s below the floor: recovered %q, want a below-the-floor panic", tc.name, msg)
				}
			}()
			tc.call(&r)
		}()
	}
	// Without a floor, any time is accepted.
	var r Resource
	r.Acquire(100, 5)
	if start := r.Acquire(99, 1); start != 99 {
		t.Fatalf("unfloored backfill start = %d, want 99", start)
	}
}

// floorStream is a request stream shaped like a simulator's: arrivals up to
// 1024 cycles ahead of a floor that advances 4 cycles per request (about 60%
// utilization, so the calendar has real gaps to backfill).
type floorStream struct {
	floor Time
	x     uint64
}

func (s *floorStream) next() (now, hold Time) {
	s.floor += 4
	s.x = s.x*6364136223846793005 + 1442695040888963407
	return s.floor + Time(s.x>>54), 1 + Time(s.x>>62)
}

// TestResourceAcquireZeroAlloc pins the steady state of a floor-attached
// calendar: compaction reuses the backing array, so once warm it never
// allocates.
func TestResourceAcquireZeroAlloc(t *testing.T) {
	s := floorStream{x: 1}
	var r Resource
	r.SetFloor(&s.floor)
	step := func() { r.Acquire(s.next()) }
	for i := 0; i < 1<<16; i++ {
		step()
	}
	if n := testing.AllocsPerRun(1<<14, step); n != 0 {
		t.Fatalf("floor-attached Acquire allocates %v times per call in steady state, want 0", n)
	}
	if len(r.iv) > 1024 {
		t.Fatalf("calendar holds %d intervals; arrivals span 1024 cycles past the floor", len(r.iv))
	}
}
