// Cluster walkthrough: a 3-node aggsimd cluster in one process.
//
// A production deployment runs `aggsimd -cluster-name ... -peers ...` on N
// machines; this example embeds three nodes in-process so the whole cluster
// story — gossip membership, consistent-hash ownership, compute-at-owner
// forwarding, replication, and exactly-once across a node death — runs as
// one self-contained program:
//
//	go run ./examples/cluster
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"pimdsm"
)

// node bundles one in-process daemon: the server, its membership node, and
// the function that tears its HTTP front door down.
type node struct {
	addr      string
	srv       *pimdsm.Server
	peer      *pimdsm.ClusterNode
	closeHTTP func()
}

func (n *node) kill() {
	// HTTP first, the way a crash looks to peers, then drain the server.
	n.closeHTTP()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = n.srv.Shutdown(ctx)
}

func main() {
	// 1. Bind every listener before starting any node, so each one knows the
	// full seed slate from its first heartbeat. This mirrors what a static
	// -peers list gives real daemons.
	const N = 3
	lns := make([]net.Listener, N)
	addrs := make([]string, N)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}

	// 2. Start the nodes: each is a complete aggsimd (slots, window, cache)
	// plus a membership node gossiping over the shared seed list. A fast
	// heartbeat keeps the demo snappy; real daemons default to 500ms.
	nodes := make([]*node, N)
	start := func(i int) *node {
		srv, err := pimdsm.NewServer(pimdsm.ServerOptions{Slots: 1, QueueLimit: 8}, 1)
		if err != nil {
			log.Fatal(err)
		}
		peer, err := pimdsm.NewClusterNode(pimdsm.ClusterConfig{
			Name: "demo", Self: addrs[i], Seeds: addrs,
			Replicas: 2, HeartbeatEvery: 25 * time.Millisecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		closeHTTP := pimdsm.NewServiceAPI(srv, nil).Serve(lns[i])
		srv.AttachCluster(peer) // starts the heartbeat loop
		return &node{addr: addrs[i], srv: srv, peer: peer, closeHTTP: closeHTTP}
	}
	for i := range nodes {
		nodes[i] = start(i)
	}
	waitAlive := func(live []*node, want int) {
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			ok := true
			for _, n := range live {
				ok = ok && n.peer.Stats().Alive == want
			}
			if ok {
				return
			}
			if time.Now().After(deadline) {
				log.Fatalf("cluster never converged to %d members", want)
			}
		}
	}
	waitAlive(nodes, N)
	fmt.Printf("cluster %q up: %d members converged by gossip\n", "demo", N)
	for _, m := range nodes[0].peer.Members() {
		fmt.Printf("  %-21s %s\n", m.Addr, m.State)
	}

	// 3. Submit the Figure 6 batch through door 0. Keys the door does not
	// own are computed at their ring owners (compute-at-owner forwarding);
	// the cluster-wide engine-run total still equals the number of distinct
	// configurations — the owner's singleflight is the cluster lock.
	batch := pimdsm.JobSpec{Name: "fig6-fft", Configs: pimdsm.Figure6Specs("fft", 4, 0.02)}
	submit := func(addr string) (pimdsm.JobStatus, [][]byte) {
		c := pimdsm.NewServiceClient(addr)
		st, err := c.Submit(batch)
		if err != nil {
			log.Fatal(err)
		}
		fin, err := c.Wait(context.Background(), st.ID, 20*time.Millisecond)
		if err != nil {
			log.Fatal(err)
		}
		_, raw, err := c.Result(fin.ID)
		if err != nil {
			log.Fatal(err)
		}
		out := make([][]byte, len(raw))
		for i, r := range raw {
			out[i] = []byte(r)
		}
		return fin, out
	}
	runsAcross := func(live []*node) (total uint64) {
		for _, n := range live {
			total += n.srv.Stats().SimulatedRuns
		}
		return total
	}
	fin, ref := submit(nodes[0].addr)
	fmt.Printf("\ndoor %s: job %s done — %d configs, %d forwarded to owners, cluster-wide runs %d\n",
		nodes[0].addr, fin.ID, fin.Total, fin.Forwarded, runsAcross(nodes))

	// 4. Resubmit the identical batch through a DIFFERENT door: replication
	// pushed every completed result to its key's ring successors, and the
	// forwarding path cached the bytes at the first front door, so this is
	// answered without a single new simulation — byte-identical.
	fin2, again := submit(nodes[2].addr)
	for i := range ref {
		if !bytes.Equal(ref[i], again[i]) {
			log.Fatalf("config %d: bytes differ across doors", i)
		}
	}
	fmt.Printf("door %s: job %s — %d cache hits, cluster-wide runs still %d, bytes identical\n",
		nodes[2].addr, fin2.ID, fin2.CacheHits, runsAcross(nodes))

	// 5. Kill a node and resubmit through a survivor. The dead node's ring
	// arcs fall to its successors — exactly where the replicas already live —
	// so the batch completes with zero new simulations and the same bytes.
	victim := 1
	runsBefore := runsAcross([]*node{nodes[0], nodes[2]})
	nodes[victim].kill()
	survivors := []*node{nodes[0], nodes[2]}
	waitAlive(survivors, N-1)
	fmt.Printf("\nkilled %s; survivors converged to %d members\n", addrs[victim], N-1)
	fin3, after := submit(nodes[0].addr)
	for i := range ref {
		if !bytes.Equal(ref[i], after[i]) {
			log.Fatalf("config %d: bytes differ after node death", i)
		}
	}
	fmt.Printf("door %s: job %s — served from survivors' caches, runs %d (was %d), bytes identical\n",
		nodes[0].addr, fin3.ID, runsAcross(survivors), runsBefore)

	// 6. The operator's view: the serve-layer cluster counters.
	st := nodes[0].srv.Stats()
	if st.Cluster != nil {
		fmt.Printf("\nnode %s cluster stats: forwards sent %d / served %d, replicas sent %d / received %d, redirects %d\n",
			nodes[0].addr, st.Cluster.ForwardsSent, st.Cluster.ForwardsServed,
			st.Cluster.ReplicasSent, st.Cluster.ReplicasReceived, st.Cluster.Redirects)
	}

	for _, n := range survivors {
		n.kill()
	}
	fmt.Println("\ndone: every byte identical across doors, owners and a node death")
}
