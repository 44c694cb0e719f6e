package harness

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"pimdsm"
	"pimdsm/internal/serve"
)

// smokeBatch is the paper's Figure 6 configuration set at test scale — the
// same batch the single-node smoke test simulates.
func smokeBatch(t *testing.T) []serve.ConfigSpec {
	t.Helper()
	batch := pimdsm.Figure6Specs("fft", 4, 0.02)
	if len(batch) < 3 {
		t.Fatalf("Figure6Specs returned %d configs", len(batch))
	}
	return batch
}

func batchKeys(t *testing.T, batch []serve.ConfigSpec) []uint64 {
	t.Helper()
	seen := make(map[uint64]bool)
	keys := make([]uint64, len(batch))
	for i, cs := range batch {
		keys[i] = cs.Key()
		if seen[keys[i]] {
			t.Fatalf("batch keys not distinct: %016x repeats", keys[i])
		}
		seen[keys[i]] = true
	}
	return keys
}

// submitWait pushes specs through the front door at addr and returns the
// per-config result bytes.
func submitWait(t *testing.T, addr, name string, specs []serve.ConfigSpec) []string {
	t.Helper()
	cl := serve.NewClient(addr)
	st, err := cl.Submit(serve.JobSpec{Name: name, Configs: specs})
	if err != nil {
		t.Fatalf("%s: submit: %v", name, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err = cl.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("%s: wait: %v", name, err)
	}
	if st.State != serve.JobDone {
		t.Fatalf("%s: job %s finished %s (%s), want done", name, st.ID, st.State, st.Error)
	}
	_, raw, err := cl.Result(st.ID)
	if err != nil {
		t.Fatalf("%s: result: %v", name, err)
	}
	out := make([]string, len(raw))
	for i := range raw {
		out[i] = string(raw[i])
	}
	return out
}

// singleNode starts a plain cluster-less daemon — the byte-identity
// reference every cluster answer must match.
func singleNode(t *testing.T) string {
	t.Helper()
	srv, err := serve.New(serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closeHTTP := serve.NewAPI(srv, nil).Serve(ln)
	t.Cleanup(func() {
		closeHTTP()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return ln.Addr().String()
}

func assertSameResults(t *testing.T, phase string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d", phase, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: config %d result bytes differ from single-node reference:\n got %s\nwant %s",
				phase, i, got[i], want[i])
		}
	}
}

// TestClusterSmoke is the ISSUE's acceptance path: a 3-node cluster serves
// the Figure 6 batch byte-identically through every front door with
// cluster-wide exactly-once simulation, survives the hot-key owner being
// killed mid-life, and recovers the restarted owner from replicas without a
// single re-simulation.
func TestClusterSmoke(t *testing.T) {
	c, err := Start("smoke", Options{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitAlive(3, 15*time.Second); err != nil {
		t.Fatal(err)
	}

	batch := smokeBatch(t)
	keys := batchKeys(t, batch)
	ref := submitWait(t, singleNode(t), "reference", batch)

	// Phase 1: the same batch through every front door. Every door answers
	// with the single-node bytes, and the cluster as a whole simulated each
	// distinct key exactly once no matter how many doors it entered.
	for i, addr := range c.Addrs {
		got := submitWait(t, addr, fmt.Sprintf("door-%d", i), batch)
		assertSameResults(t, fmt.Sprintf("door %d", i), ref, got)
	}
	if got := c.SimulatedRuns(); got != uint64(len(keys)) {
		t.Fatalf("exactly-once: %d engine runs across the cluster for %d distinct keys", got, len(keys))
	}

	// Phase 2: replication settles — with N=3 and R=2 every node ends up
	// holding every key, and the peer counters agree across the cluster
	// (every forward served was sent by someone, every replica received was
	// pushed by someone, nothing failed).
	if !Wait(15*time.Second, func() bool {
		for _, n := range c.Live() {
			for _, k := range keys {
				if !n.Srv.Cache().Contains(k) {
					return false
				}
			}
		}
		return true
	}) {
		t.Fatal("replication did not settle: some node is missing a key")
	}
	if !Wait(10*time.Second, func() bool {
		var fSent, fServed, rSent, rRecv, failed uint64
		for _, cs := range c.ClusterStats() {
			fSent += cs.ForwardsSent
			fServed += cs.ForwardsServed
			rSent += cs.ReplicasSent
			rRecv += cs.ReplicasReceived
			failed += cs.ForwardsFailed + cs.ReplicasFailed
		}
		return failed == 0 && fSent == fServed && rSent == rRecv && rSent > 0
	}) {
		t.Fatalf("cluster counters never settled consistent: %+v", c.ClusterStats())
	}

	// Phase 3: kill the owner of the batch's first key. The survivors keep
	// answering from their replicas — same bytes, zero new simulations.
	ownerAddr, self := c.Node(0).Peer.Owner(keys[0])
	if self {
		ownerAddr = c.Addrs[0]
	}
	victim := c.Index(ownerAddr)
	if victim < 0 {
		t.Fatalf("owner %s of key %016x is not a cluster member", ownerAddr, keys[0])
	}
	survivor := c.Addrs[(victim+1)%len(c.Addrs)]
	var survivorRuns uint64
	for _, n := range c.Live() {
		if n.Addr != ownerAddr {
			survivorRuns += n.Srv.Stats().SimulatedRuns
		}
	}
	if err := c.Kill(victim); err != nil {
		t.Fatalf("kill node %d: %v", victim, err)
	}
	if err := c.WaitAlive(2, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	got := submitWait(t, survivor, "after-kill", batch)
	assertSameResults(t, "after kill", ref, got)
	if runs := c.SimulatedRuns(); runs != survivorRuns {
		t.Fatalf("kill re-simulated: survivors ran %d engine runs, had %d before", runs, survivorRuns)
	}

	// Phase 4: restart the victim on the same address — fresh cache, fresh
	// incarnation. It rejoins, refutes its death rumor, and serves the batch
	// through its own front door by recovering owned keys from the replicas
	// its successors kept: byte-identical and still zero new simulations.
	if err := c.Restart(victim); err != nil {
		t.Fatalf("restart node %d: %v", victim, err)
	}
	if err := c.WaitAlive(3, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	preRestart := c.SimulatedRuns()
	got = submitWait(t, c.Addrs[victim], "after-restart", batch)
	assertSameResults(t, "after restart", ref, got)
	if runs := c.SimulatedRuns(); runs != preRestart {
		t.Fatalf("restart re-simulated: %d engine runs, had %d", runs, preRestart)
	}
	rcs := c.Node(victim).Srv.Stats().Cluster
	if rcs == nil || rcs.Recoveries == 0 {
		t.Fatalf("restarted owner answered its own keys without replica recovery: %+v", rcs)
	}

	// The restarted node's metrics endpoint exports the cluster families.
	resp, err := http.Get("http://" + c.Addrs[victim] + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"aggsimd_cluster_members_alive 3",
		"aggsimd_cluster_recoveries_total",
		"aggsimd_cluster_forwards_sent_total",
	} {
		if !strings.Contains(string(prom), want) {
			t.Fatalf("/metrics.prom missing %q", want)
		}
	}
	assertSlotBound(t, c, 2)
}

// TestClusterImbalancedFrontDoor sends every job to one single-slot node
// while its peers sit idle. Ownership alone spreads the load: node 0
// forwards each config it does not own to the key's owner, so every node
// simulates exactly the keys the ring assigns to it, and the cluster as a
// whole simulates each distinct key once.
func TestClusterImbalancedFrontDoor(t *testing.T) {
	c, err := Start("imbalanced", Options{N: 3, Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitAlive(3, 15*time.Second); err != nil {
		t.Fatal(err)
	}

	// The batch at two scales doubles the distinct key set: every job is one
	// config, every key unique, all submitted to node 0 directly (no
	// ownership redirect).
	door := c.Node(0)
	owned := make(map[string]uint64)
	var jobs []*serve.Job
	for v, scale := range []float64{0.02, 0.025} {
		batch := pimdsm.Figure6Specs("fft", 4, scale)
		for i, key := range batchKeys(t, batch) {
			owner, self := door.Peer.Owner(key)
			if self {
				owner = door.Addr
			}
			owned[owner]++
			st, err := door.Srv.Submit(serve.JobSpec{
				Name:    fmt.Sprintf("imbalanced-%d-%d", v, i),
				Configs: []serve.ConfigSpec{batch[i]},
			})
			if err != nil {
				t.Fatalf("submit scale %g config %d: %v", scale, i, err)
			}
			j, ok := door.Srv.Job(st.ID)
			if !ok {
				t.Fatalf("job %s vanished after submit", st.ID)
			}
			jobs = append(jobs, j)
		}
	}

	for _, j := range jobs {
		select {
		case <-j.Done():
		case <-time.After(60 * time.Second):
			t.Fatalf("job did not finish; cluster stats %+v", c.ClusterStats())
		}
		st := door.Srv.Status(j)
		raw, ok := door.Srv.Results(j)
		if st.State != serve.JobDone || !ok || len(raw) != 1 || len(raw[0]) == 0 {
			t.Fatalf("job %s finished %s (%s) without a result (ok=%v)", st.ID, st.State, st.Error, ok)
		}
	}

	if got := c.SimulatedRuns(); got != uint64(len(jobs)) {
		t.Fatalf("exactly-once: %d engine runs for %d distinct keys", got, len(jobs))
	}
	for _, n := range c.Live() {
		if got := n.Srv.Stats().SimulatedRuns; got != owned[n.Addr] {
			t.Errorf("node %s simulated %d configs, owns %d of the keys", n.Addr, got, owned[n.Addr])
		}
	}
	assertSlotBound(t, c, 1)
}

// assertSlotBound checks that no live node ever ran more simulations at once
// than its budget, and that the budget is the one the harness asked for.
func assertSlotBound(t *testing.T, c *Cluster, budget int) {
	t.Helper()
	for _, n := range c.Live() {
		st := n.Srv.Stats()
		if st.SimSlots != budget || st.SimSlotsHighWater > int64(st.SimSlots) {
			t.Errorf("node %s: %d simulation slots, high water %d; want %d slots, high water at most that",
				n.Addr, st.SimSlots, st.SimSlotsHighWater, budget)
		}
	}
}

// TestClusterOwnerSlotBound: node 1 simulates a multi-miss job of its own
// while node 0 forwards it a 4-config batch whose keys node 1 owns. The
// forwarded computes take node 1's slots like its own job's misses do, so
// with one slot node 1 never runs two simulations at once, and still
// simulates every one of the 7 keys exactly once.
func TestClusterOwnerSlotBound(t *testing.T) {
	c, err := Start("slots", Options{N: 3, Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitAlive(3, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	door, owner := c.Node(0), c.Node(1)

	// Distinct small configs whose keys node 1 owns, as both nodes see it.
	var mine []serve.ConfigSpec
	for k := 0; len(mine) < 7; k++ {
		cs := serve.ConfigSpec{Arch: "agg", App: "fft", Scale: 0.02 + 0.0001*float64(k),
			Threads: 4, Pressure: 0.75, DRatio: 1}
		o, _ := door.Peer.Owner(cs.Key())
		if _, self := owner.Peer.Owner(cs.Key()); self && o == owner.Addr {
			mine = append(mine, cs)
		}
	}
	var jobs []*serve.Job
	for _, sub := range []struct {
		n    *Node
		spec serve.JobSpec
	}{
		{owner, serve.JobSpec{Name: "local", Configs: mine[:3]}},
		{door, serve.JobSpec{Name: "forwarded", Configs: mine[3:]}},
	} {
		st, err := sub.n.Srv.Submit(sub.spec)
		if err != nil {
			t.Fatalf("%s: submit: %v", sub.spec.Name, err)
		}
		j, _ := sub.n.Srv.Job(st.ID)
		jobs = append(jobs, j)
	}
	for i, j := range jobs {
		select {
		case <-j.Done():
		case <-time.After(60 * time.Second):
			t.Fatalf("job %d did not finish; cluster stats %+v", i, c.ClusterStats())
		}
	}
	if st := owner.Srv.Status(jobs[0]); st.State != serve.JobDone || st.Simulated != 3 {
		t.Fatalf("local job at the owner: %+v, want done with 3 simulated", st)
	}
	if st := door.Srv.Status(jobs[1]); st.State != serve.JobDone || st.Forwarded != 4 {
		t.Fatalf("forwarded job at the front door: %+v, want done with 4 forwarded", st)
	}
	st := owner.Srv.Stats()
	if st.SimulatedRuns != 7 || st.Cluster.ForwardsServed != 4 {
		t.Fatalf("owner simulated %d and served %d forwards; want 7 and 4",
			st.SimulatedRuns, st.Cluster.ForwardsServed)
	}
	if st.SimSlotsHighWater != 1 {
		t.Errorf("owner's slot high water %d, want 1", st.SimSlotsHighWater)
	}
	assertSlotBound(t, c, 1)
}
