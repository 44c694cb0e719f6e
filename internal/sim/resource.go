package sim

import (
	"fmt"
	"slices"
	"sort"
)

// Resource models a serially-reusable hardware resource (a network link, a
// memory bank, a D-node protocol processor). It keeps a calendar of busy
// intervals: a request arriving at time t is served in the earliest gap at
// or after t that fits its occupancy. Because simulated threads run ahead of
// one another, requests do not arrive in time order — a request with an
// earlier timestamp must be allowed to backfill a gap before reservations
// made further in the future, otherwise laggard threads would queue behind
// resources that are physically idle.
//
// A calendar with a floor attached (SetFloor) forgets its past: no request
// may arrive before the floor, so an interval that ends before it can never
// delay anyone again and is dropped. Results are identical to an unpruned
// calendar's; only memory and search length shrink.
type Resource struct {
	iv []interval // busy intervals: sorted, disjoint, non-adjacent

	// Floor pruning. floor, when non-nil, is a lower bound on every future
	// request time. iv then omits a prefix of dropped intervals that ended
	// before the floor: dropped counts them — the maxIntervals bound is over
	// the whole logical calendar, so coalescing stays exact — and head is
	// the start of the oldest logical interval while dropped > 0.
	floor   *Time
	dropped int
	head    Time

	// Accounting.
	busy     Time // total cycles the resource was held
	acquires uint64
	waited   Time // total cycles requesters waited before service
}

type interval struct{ s, e Time }

// maxIntervals bounds calendar memory: when exceeded, the oldest half is
// coalesced into one conservative busy block (only requests arriving with
// very stale timestamps can be over-delayed by this).
const maxIntervals = 4096

// SetFloor attaches floor as the calendar's lower bound on request times
// (nil detaches; attach before first use). The owner must keep *floor
// nondecreasing; sim.Scheduler.Floor publishes exactly that. Acquire and
// Block called below the floor panic: such a request could have needed an
// interval that was already dropped.
func (r *Resource) SetFloor(floor *Time) { r.floor = floor }

// SetFloors attaches floor to every Resource of every group (nil detaches).
func SetFloors(floor *Time, groups ...[]Resource) {
	for _, g := range groups {
		for i := range g {
			g[i].SetFloor(floor)
		}
	}
}

// Acquire requests the resource at time now for hold cycles and returns the
// service start time (≥ now): the beginning of the earliest gap of length
// hold at or after now.
//
// Placement and reservation are fused into one pass: the gap search already
// establishes the insertion index, and the binary search is hand-rolled
// because this is the hottest loop in a full simulation (every cache miss
// crosses several Resources) — sort.Search's callback indirection is
// measurable here.
func (r *Resource) Acquire(now, hold Time) (start Time) {
	if f := r.floor; f != nil && (now < *f || len(r.iv) == cap(r.iv)) {
		r.admit("Acquire", now)
	}
	r.acquires++
	r.busy += hold
	n := len(r.iv)
	if n == 0 || now >= r.iv[n-1].e {
		// Fast path: arrival at or after the last reservation — service is
		// immediate and the reservation extends or follows the calendar tail.
		if hold > 0 {
			if n > 0 && r.iv[n-1].e == now {
				r.iv[n-1].e = now + hold
			} else {
				r.iv = append(r.iv, interval{now, now + hold})
			}
		}
		return now
	}
	// First interval ending after now.
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.iv[mid].e > now {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	// Walk forward to the earliest gap of length hold. On exit every interval
	// below i ends at or before start, and interval i (if any) begins at or
	// after start+hold, so i is also the insertion index.
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
	if r.dropped+len(r.iv) > maxIntervals {
		r.coalesce()
	}
	return start
}

// coalesce merges the oldest half of the logical calendar — dropped
// intervals included — into one busy block ending where that half ends.
func (r *Resource) coalesce() {
	half := (r.dropped + len(r.iv)) / 2
	j := half - 1 - r.dropped // index in iv of the half's last interval
	if j < 0 {
		// The whole half was dropped, and so is the block that replaces it.
		r.dropped -= half - 1
		return
	}
	s := r.head
	if r.dropped == 0 {
		s = r.iv[0].s
	}
	r.iv[j].s = s
	r.iv = r.iv[:copy(r.iv, r.iv[j:])]
	r.dropped = 0
}

// compact runs when the calendar's backing array is full. It drops the
// intervals that end before floor — always keeping the last, so FreeAt stays
// exact — by sliding the rest to the front of the same array. If that frees
// less than a quarter of the array, it also grows the array to about twice
// its size, so compactions stay rare and their copying amortizes to O(1) per
// reservation.
func (r *Resource) compact(floor Time) {
	n := len(r.iv)
	lo, hi := 0, n-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.iv[mid].e >= floor {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo > 0 {
		if r.dropped == 0 {
			r.head = r.iv[0].s
		}
		r.dropped += lo
		r.iv = r.iv[:copy(r.iv, r.iv[lo:])]
	}
	if len(r.iv) > cap(r.iv)*3/4 {
		r.iv = slices.Grow(r.iv, cap(r.iv))
	}
}

// admit is the floor-attached calendar's slow path, for a request below the
// floor or a full calendar: it panics on the former and compacts the latter
// before the request can grow it. A request below the floor is a model bug
// (some component reached back before the scheduler's global time), never a
// condition to tolerate, since its answer may depend on dropped intervals.
func (r *Resource) admit(op string, at Time) {
	f := *r.floor
	if at < f {
		panic(fmt.Sprintf("sim: Resource.%s at %d, below the floor %d", op, at, f))
	}
	if len(r.iv) == cap(r.iv) {
		r.compact(f)
	}
}

// Block marks the resource busy over [from, to), merging with and absorbing
// any existing reservations it overlaps. Used when an operation's duration
// (e.g. an OS pageout on a D-node) is only known after its component costs
// are computed.
func (r *Resource) Block(from, to Time) {
	if f := r.floor; f != nil && (from < *f || len(r.iv) == cap(r.iv)) {
		r.admit("Block", from)
	}
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

// QueueDepth returns the number of calendar busy intervals that have not
// fully drained at time at — a proxy for how much queued work remains.
// Abutting reservations merge into one interval, so back-to-back traffic
// counts as a single pending episode. It is a measurement hook for
// profiling and never mutates the calendar. With a floor attached, at must
// not be below the floor: dropped intervals are no longer counted.
func (r *Resource) QueueDepth(at Time) int {
	lo, hi := 0, len(r.iv)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.iv[mid].e > at {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return len(r.iv) - lo
}

// FreeAt returns the end of the last reservation (0 if never used).
func (r *Resource) FreeAt() Time {
	if len(r.iv) == 0 {
		return 0
	}
	return r.iv[len(r.iv)-1].e
}

// Utilization returns total held cycles, number of acquisitions, and total
// queueing delay imposed on requesters.
func (r *Resource) Utilization() (busy Time, acquires uint64, waited Time) {
	return r.busy, r.acquires, r.waited
}
