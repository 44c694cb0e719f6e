// Package harness spins up an N-node in-process aggsimd cluster for tests:
// real HTTP listeners on loopback, real gossip membership, real forwarding
// and replication — everything but separate processes. Nodes can be killed
// (HTTP torn down first, so peers see silence, then the server drained) and
// restarted on the same address with a fresh cache and a fresh incarnation,
// which is exactly the crash/recovery sequence the cluster smoke test must
// prove exactly-once across.
package harness

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"time"

	"pimdsm/internal/cluster"
	"pimdsm/internal/serve"
)

// Options configures every node in the harness cluster identically.
type Options struct {
	// N is the cluster size (default 3).
	N int
	// Replicas is the replication factor handed to each node (default 2).
	Replicas int
	// Heartbeat is the gossip period. Tests want it fast (default 25ms);
	// suspect/dead cutoffs scale from it inside internal/cluster.
	Heartbeat time.Duration
	// Slots and QueueLimit are per-node serve options (defaults 2 and 16).
	Slots      int
	QueueLimit int
	// Log receives every node's structured log lines (nil = discard).
	Log *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.N <= 0 {
		o.N = 3
	}
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = 25 * time.Millisecond
	}
	if o.Slots <= 0 {
		o.Slots = 2
	}
	if o.QueueLimit <= 0 {
		o.QueueLimit = 16
	}
	return o
}

// Node is one live cluster member: its serve.Server, its membership node and
// the address its HTTP API answers on.
type Node struct {
	Addr string
	Srv  *serve.Server
	Peer *cluster.Node

	stop func()
}

// Cluster is the harness: a fixed address slate (so restarts rejoin under
// the same identity) and the currently live nodes.
type Cluster struct {
	Name  string
	Addrs []string

	opt   Options
	nodes []*Node // nil entries are killed
}

// Start brings up an opt.N-node cluster named name. All listeners are bound
// before any node starts, so the full seed slate is known to every member
// from its first heartbeat.
func Start(name string, opt Options) (*Cluster, error) {
	opt = opt.withDefaults()
	c := &Cluster{Name: name, opt: opt, nodes: make([]*Node, opt.N)}

	lns := make([]net.Listener, opt.N)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.Close()
			return nil, err
		}
		lns[i] = ln
		c.Addrs = append(c.Addrs, ln.Addr().String())
	}
	for i := range lns {
		n, err := c.startNode(i, lns[i])
		if err != nil {
			for _, ln := range lns[i:] {
				ln.Close()
			}
			c.Close()
			return nil, err
		}
		c.nodes[i] = n
	}
	return c, nil
}

func (c *Cluster) startNode(i int, ln net.Listener) (*Node, error) {
	srv, err := serve.New(serve.Options{
		Slots:      c.opt.Slots,
		QueueLimit: c.opt.QueueLimit,
		Log:        c.opt.Log,
	})
	if err != nil {
		return nil, err
	}
	peer, err := cluster.New(cluster.Config{
		Name:           c.Name,
		Self:           c.Addrs[i],
		Seeds:          c.Addrs,
		Replicas:       c.opt.Replicas,
		HeartbeatEvery: c.opt.Heartbeat,
		Log:            c.opt.Log,
	})
	if err != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		return nil, err
	}
	api := serve.NewAPI(srv, nil)
	closeHTTP := api.Serve(ln)
	// Serve before attaching: the first heartbeat may arrive (or be
	// answered) the moment the loop starts.
	srv.AttachCluster(peer)
	return &Node{Addr: c.Addrs[i], Srv: srv, Peer: peer, stop: closeHTTP}, nil
}

// Node returns member i, or nil while it is killed.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Live returns the currently running members.
func (c *Cluster) Live() []*Node {
	var out []*Node
	for _, n := range c.nodes {
		if n != nil {
			out = append(out, n)
		}
	}
	return out
}

// Index maps an advertise address back to its slate position.
func (c *Cluster) Index(addr string) int {
	for i, a := range c.Addrs {
		if a == addr {
			return i
		}
	}
	return -1
}

// Kill takes member i down the way a crash looks to its peers: the HTTP
// listener closes first (heartbeats to it start failing immediately), then
// the server is drained and its goroutines reaped so the race detector sees
// a clean exit.
func (c *Cluster) Kill(i int) error {
	n := c.nodes[i]
	if n == nil {
		return fmt.Errorf("harness: node %d already killed", i)
	}
	n.stop()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	err := n.Srv.Shutdown(ctx)
	c.nodes[i] = nil
	return err
}

// Restart brings member i back on its original address with a fresh server
// (empty cache — recovery must come from replicas) and a fresh membership
// node at incarnation zero, which refutes its own death rumor on rejoin.
func (c *Cluster) Restart(i int) error {
	if c.nodes[i] != nil {
		return fmt.Errorf("harness: node %d still running", i)
	}
	ln, err := net.Listen("tcp", c.Addrs[i])
	if err != nil {
		return err
	}
	n, err := c.startNode(i, ln)
	if err != nil {
		ln.Close()
		return err
	}
	c.nodes[i] = n
	return nil
}

// Close tears down every live member.
func (c *Cluster) Close() {
	for i, n := range c.nodes {
		if n != nil {
			c.Kill(i)
		}
	}
}

// WaitAlive blocks until every live member counts want alive members (self
// included), or the timeout expires.
func (c *Cluster) WaitAlive(want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ok := true
		for _, n := range c.Live() {
			if n.Peer.Stats().Alive != want {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			var views []string
			for _, n := range c.Live() {
				st := n.Peer.Stats()
				views = append(views, fmt.Sprintf("%s: alive=%d suspect=%d dead=%d",
					n.Addr, st.Alive, st.Suspect, st.Dead))
			}
			return fmt.Errorf("harness: membership did not converge to %d alive: %v", want, views)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Wait polls cond until it returns true or the timeout expires.
func Wait(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// SimulatedRuns sums the engine-run counter across live members — the
// cluster-wide exactly-once ledger.
func (c *Cluster) SimulatedRuns() uint64 {
	var sum uint64
	for _, n := range c.Live() {
		sum += n.Srv.Stats().SimulatedRuns
	}
	return sum
}

// ClusterStats returns each live member's cluster-stats section keyed by
// address (nil entries never appear; killed members drop out of the sums).
func (c *Cluster) ClusterStats() map[string]*serve.ClusterStats {
	out := make(map[string]*serve.ClusterStats)
	for _, n := range c.Live() {
		if cs := n.Srv.Stats().Cluster; cs != nil {
			out[n.Addr] = cs
		}
	}
	return out
}
