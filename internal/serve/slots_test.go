package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"testing"
	"time"

	"pimdsm/internal/cluster"
	"pimdsm/internal/machine"
)

// waitSlotWaiters waits until n requests wait in s's slot queue.
func waitSlotWaiters(t *testing.T, s *Server, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		s.mu.Lock()
		got := len(s.slots.waiters)
		s.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d requests wait for a slot, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// grantOrder lets n runs through b's barrier one at a time and returns their
// thread counts in arrival order. The first must already be held.
func grantOrder(t *testing.T, b *barrierRunner, n int) []int {
	t.Helper()
	var order []int
	for len(order) < n {
		select {
		case th := <-b.arrived:
			order = append(order, th)
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d runs reached the barrier: %v", len(order), n, order)
		}
		b.release <- struct{}{}
	}
	return order
}

// TestSlotQueuePriority: while a low-priority job holds the only slot and
// its other misses wait, a high-priority job submitted after it takes the
// next free slot ahead of them.
func TestSlotQueuePriority(t *testing.T) {
	b := newBarrierRunner()
	s := newPoolServer(t, Options{Slots: 1, Run: b.run}, b)
	low, err := s.Submit(missBatch("low", 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	waitSlotWaiters(t, s, 1) // the first miss runs, the second waits
	hi := missBatch("high", 10, 1)
	hi.Priority = 5
	high, err := s.Submit(hi)
	if err != nil {
		t.Fatal(err)
	}
	waitSlotWaiters(t, s, 2)
	if got, want := grantOrder(t, b, 4), []int{1, 10, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("runs in order %v, want %v (the high job's miss first after the held run)", got, want)
	}
	for _, id := range []string{low.ID, high.ID} {
		if fin := waitJob(t, s, id); fin.State != JobDone {
			t.Fatalf("job %s finished %+v", id, fin)
		}
	}
	checkSlots(t, s, 1, 1)
}

// TestSlotQueuePeerComputeRanksAsAJobAdmittedOnArrival: a peer's compute
// waits at priority 0 behind every job admitted before it arrived (here the
// second miss of the job holding the slot) and ahead of every job admitted
// after.
func TestSlotQueuePeerComputeRanksAsAJobAdmittedOnArrival(t *testing.T) {
	b := newBarrierRunner()
	s := newPoolServer(t, Options{Slots: 1, Run: b.run}, b)
	node, err := cluster.New(cluster.Config{Name: "order", Self: "order-node:1", HeartbeatEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	s.AttachCluster(node)
	h := NewAPI(s, nil).Handler()

	before, err := s.Submit(missBatch("before", 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	waitSlotWaiters(t, s, 1)
	peer := missBatch("", 20, 1).Configs[0]
	body, _ := json.Marshal(clusterComputeRequest{Spec: peer, Key: fmt.Sprintf("%016x", peer.Key(0))})
	code := make(chan int, 1)
	go func() { code <- peerRequest(h, "order", "POST", "/api/v1/cluster/compute", body).Code }()
	waitSlotWaiters(t, s, 2)
	after, err := s.Submit(missBatch("after", 30, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitSlotWaiters(t, s, 3)
	if got, want := grantOrder(t, b, 4), []int{1, 2, 20, 30}; !reflect.DeepEqual(got, want) {
		t.Fatalf("runs in order %v, want %v", got, want)
	}
	if got := <-code; got != http.StatusOK {
		t.Fatalf("compute answered HTTP %d, want 200", got)
	}
	for _, id := range []string{before.ID, after.ID} {
		if fin := waitJob(t, s, id); fin.State != JobDone {
			t.Fatalf("job %s finished %+v", id, fin)
		}
	}
	checkSlots(t, s, 1, 1)
}

// TestPoolForwardsHoldNoSlot: a front door with one slot forwards four
// single-config jobs whose keys a peer owns, and all four computes run at the
// peer at once: waiting on a peer holds no slot at the door.
func TestPoolForwardsHoldNoSlot(t *testing.T) {
	b := newBarrierRunner()
	peer := newPoolServer(t, Options{Slots: 4, Run: b.run}, b)
	door := newPoolServer(t, Options{Slots: 1, Run: func(machine.Config) (*machine.Result, error) {
		return nil, errors.New("front door simulated a peer-owned key")
	}}, nil)
	var addrs []string
	for _, s := range []*Server{peer, door} {
		addr, closeHTTP, err := NewAPI(s, nil).ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(closeHTTP)
		addrs = append(addrs, addr)
	}
	for i, s := range []*Server{peer, door} {
		node, err := cluster.New(cluster.Config{Name: "fwd", Self: addrs[i], Seeds: addrs, HeartbeatEvery: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		s.AttachCluster(node)
	}

	var ids []string
	for threads := 1; len(ids) < 4; threads++ {
		spec := missBatch("", threads, 1)
		key := spec.Configs[0].Key(0)
		if owner, _ := door.clusterNode().Owner(key); owner != addrs[0] {
			continue
		}
		if _, self := peer.clusterNode().Owner(key); !self {
			continue
		}
		st, err := door.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	b.drain(t, 4, 4)
	for _, id := range ids {
		if fin := waitJob(t, door, id); fin.State != JobDone || fin.Forwarded != 1 {
			t.Fatalf("job %s finished %+v, want done with 1 forwarded", id, fin)
		}
	}
	if st := door.Stats(); st.SimSlotsHighWater != 0 {
		t.Fatalf("front door held %d slots, want none", st.SimSlotsHighWater)
	}
	checkSlots(t, peer, 4, 4)
}

// TestAllHitJobsKeepRetryAfter: jobs finished inside Submit take
// microseconds, so they must not pull the EWMA job time down: after one
// 200 ms job and 50 all-hit jobs, a full window still asks for a wait that
// covers the backlog.
func TestAllHitJobsKeepRetryAfter(t *testing.T) {
	gate := make(chan struct{})
	run := func(cfg machine.Config) (*machine.Result, error) {
		if cfg.Threads == 1 {
			time.Sleep(200 * time.Millisecond)
		} else {
			<-gate
		}
		return poolResult(cfg), nil
	}
	s := newPoolServer(t, Options{Slots: 1, Run: run}, nil)
	t.Cleanup(func() { close(gate) })

	warm, err := s.Submit(missBatch("warm", 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, warm.ID)
	for i := 0; i < 50; i++ {
		if st, err := s.Submit(missBatch("hit", 1, 1)); err != nil || st.State != JobDone {
			t.Fatalf("all-hit job %d: %+v, %v", i, st, err)
		}
	}
	for threads := 2; threads < 100; threads++ {
		_, err := s.Submit(missBatch("fill", threads, 1))
		if err == nil {
			continue
		}
		var be *BusyError
		if !errors.As(err, &be) {
			t.Fatalf("submit %d: %v, want *BusyError", threads, err)
		}
		if be.RetryAfter < 2*time.Second {
			t.Fatalf("retry-after %v with %d jobs ahead of 200 ms each on one slot, want at least 2s",
				be.RetryAfter, threads-2)
		}
		return
	}
	t.Fatal("the admission window never filled")
}
