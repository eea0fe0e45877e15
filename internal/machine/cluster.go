package machine

import (
	"fmt"

	"khsim/internal/metrics"
	"khsim/internal/net"
	"khsim/internal/sim"
)

// ClusterConfig describes a rack of identical nodes joined by a
// homogeneous fabric.
type ClusterConfig struct {
	// Nodes is the rack size.
	Nodes int
	// Node is the per-node hardware template. Its Seed field is ignored:
	// each node's engine seed is derived from Seed via sim.SeedStream so
	// node RNG streams never collide.
	Node Config
	// Seed is the cluster base seed.
	Seed uint64
	// Link parameterizes every point-to-point link (zero value selects
	// net.DefaultLink).
	Link net.LinkConfig
}

// Cluster is N independent node stacks and the fabric joining them. Each
// node keeps its own engine — a deterministic sequential island — and the
// cluster multiplexes them by always firing the globally earliest event
// (ties broken by node index). Cross-node interaction happens only
// through fabric messages, whose positive link latency guarantees a
// scheduled delivery never lands in a destination's past.
type Cluster struct {
	Nodes  []*Node
	Fabric *net.Fabric
	// Metrics is the cluster-level registry (fabric counters, replication
	// protocol series); per-node registries stay per-node.
	Metrics *metrics.Registry

	cfg ClusterConfig
	vt  sim.Time // global virtual time: timestamp of the last fired event

	// Live-migration state (see migrate.go): per-node endpoints and wire
	// ports installed by EnableMigration, plus every transfer scheduled.
	migEPs   []MigrationEndpoint
	migPorts []*migPort
	migs     []*Migration
	migByID  map[uint64]*Migration
	migSeq   uint64

	// Next-event index heap over the nodes, keyed by a cached lower bound
	// on each node's earliest unfired event. Each engine's schedule hook
	// performs decrease-key/insert; fired and cancelled events make keys
	// go stale-low, which next() repairs lazily by raising to the
	// engine's actual NextAt and re-sifting.
	heapIdx []int      // heap of node indices, min at heapIdx[0]
	heapPos []int      // node index -> position in heapIdx, -1 when absent
	heapKey []sim.Time // node index -> cached lower bound on NextAt
}

// NewCluster builds the rack: n nodes from the template with
// SeedStream-derived engine seeds, attached to a fresh fabric.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("machine: cluster needs at least one node, got %d", cfg.Nodes)
	}
	link := cfg.Link
	if link == (net.LinkConfig{}) {
		link = net.DefaultLink()
	}
	fabric, err := net.NewFabric(cfg.Nodes, link)
	if err != nil {
		return nil, err
	}
	c := &Cluster{Fabric: fabric, Metrics: metrics.NewRegistry(), cfg: cfg}
	fabric.SetMetrics(c.Metrics)
	stream := sim.NewSeedStream(cfg.Seed)
	for i := 0; i < cfg.Nodes; i++ {
		ncfg := cfg.Node
		ncfg.Seed = stream.Seed(i)
		n, err := New(ncfg)
		if err != nil {
			return nil, fmt.Errorf("machine: cluster node %d: %w", i, err)
		}
		if err := fabric.Attach(net.NodeID(i), n.Engine); err != nil {
			return nil, err
		}
		c.Nodes = append(c.Nodes, n)
	}
	c.heapPos = make([]int, cfg.Nodes)
	c.heapKey = make([]sim.Time, cfg.Nodes)
	for i, n := range c.Nodes {
		id := i
		n.Engine.SetScheduleHook(func(at sim.Time) { c.noteSchedule(id, at) })
	}
	c.rebuildHeap()
	return c, nil
}

// MustNewCluster is NewCluster for known-good configs; it panics on error.
func MustNewCluster(cfg ClusterConfig) *Cluster {
	c, err := NewCluster(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cluster's construction config.
func (c *Cluster) Config() ClusterConfig { return c.cfg }

// Now reports global virtual time: the timestamp of the most recently
// fired event across all nodes (every node's clock is ≤ this, and no
// node has an unfired event < it).
func (c *Cluster) Now() sim.Time { return c.vt }

// next finds the node holding the globally earliest unfired event, ties
// broken toward the lowest node index. It returns -1 when every engine is
// drained.
//
// The scan is heap-backed: heapKey caches a lower bound on each node's
// NextAt (maintained by the engines' schedule hooks), and the loop
// repairs stale roots — a key under the engine's true next event, or a
// node that drained — by raising or removing and re-sifting. Keys only
// ever go stale LOW (firing and cancelling raise a node's true next;
// scheduling lowers it, and the hook sees every schedule), so the root
// with a verified-fresh key really is the global minimum. Amortized
// O(log N) against the sequential scan's O(N) per event.
func (c *Cluster) next() (int, sim.Time) {
	for len(c.heapIdx) > 0 {
		i := c.heapIdx[0]
		t, ok := c.Nodes[i].Engine.NextAt()
		if !ok {
			c.heapRemoveRoot()
			continue
		}
		if t == c.heapKey[i] {
			return i, t
		}
		c.heapKey[i] = t
		c.heapSiftDown(0)
	}
	return -1, 0
}

// noteSchedule is the per-engine schedule hook: node i just scheduled an
// event at time at, so decrease its cached key (or re-insert a drained
// node).
func (c *Cluster) noteSchedule(i int, at sim.Time) {
	if pos := c.heapPos[i]; pos >= 0 {
		if at < c.heapKey[i] {
			c.heapKey[i] = at
			c.heapSiftUp(pos)
		}
		return
	}
	c.heapKey[i] = at
	c.heapPos[i] = len(c.heapIdx)
	c.heapIdx = append(c.heapIdx, i)
	c.heapSiftUp(len(c.heapIdx) - 1)
}

// rebuildHeap reinitializes the heap from every engine's actual NextAt —
// needed after Restore, which reinstalls engine queues without going
// through the schedule hooks.
func (c *Cluster) rebuildHeap() {
	c.heapIdx = c.heapIdx[:0]
	for i := range c.heapPos {
		c.heapPos[i] = -1
	}
	for i, n := range c.Nodes {
		if t, ok := n.Engine.NextAt(); ok {
			c.heapKey[i] = t
			c.heapPos[i] = len(c.heapIdx)
			c.heapIdx = append(c.heapIdx, i)
		}
	}
	for p := len(c.heapIdx)/2 - 1; p >= 0; p-- {
		c.heapSiftDown(p)
	}
}

// heapLess orders heap entries by (key, node index): the index tiebreak
// is what makes same-instant events fire lowest-node-first.
func (c *Cluster) heapLess(a, b int) bool {
	ka, kb := c.heapKey[a], c.heapKey[b]
	return ka < kb || (ka == kb && a < b)
}

func (c *Cluster) heapSwap(x, y int) {
	h := c.heapIdx
	h[x], h[y] = h[y], h[x]
	c.heapPos[h[x]] = x
	c.heapPos[h[y]] = y
}

func (c *Cluster) heapSiftUp(pos int) {
	for pos > 0 {
		parent := (pos - 1) / 2
		if !c.heapLess(c.heapIdx[pos], c.heapIdx[parent]) {
			return
		}
		c.heapSwap(pos, parent)
		pos = parent
	}
}

func (c *Cluster) heapSiftDown(pos int) {
	n := len(c.heapIdx)
	for {
		l, r := 2*pos+1, 2*pos+2
		min := pos
		if l < n && c.heapLess(c.heapIdx[l], c.heapIdx[min]) {
			min = l
		}
		if r < n && c.heapLess(c.heapIdx[r], c.heapIdx[min]) {
			min = r
		}
		if min == pos {
			return
		}
		c.heapSwap(pos, min)
		pos = min
	}
}

func (c *Cluster) heapRemoveRoot() {
	last := len(c.heapIdx) - 1
	c.heapPos[c.heapIdx[0]] = -1
	c.heapIdx[0] = c.heapIdx[last]
	c.heapIdx = c.heapIdx[:last]
	if last > 0 {
		c.heapPos[c.heapIdx[0]] = 0
		c.heapSiftDown(0)
	}
}

// linearNext is the pre-heap O(N) scan over every engine, kept as the
// reference implementation for the heap's equivalence property test and
// the rack-size benchmark comparison.
func (c *Cluster) linearNext() (int, sim.Time) {
	best := -1
	var bt sim.Time
	for i, n := range c.Nodes {
		if t, ok := n.Engine.NextAt(); ok && (best < 0 || t < bt) {
			best, bt = i, t
		}
	}
	return best, bt
}

// Step fires the single globally earliest event. It reports false when
// every node's queue is drained.
func (c *Cluster) Step() bool {
	i, t := c.next()
	if i < 0 {
		return false
	}
	c.Nodes[i].Engine.Step()
	c.vt = t
	return true
}

// RunUntil fires events in global timestamp order until the earliest
// remaining event lies strictly after t, then advances every node's clock
// to t. It returns the number of events fired across the cluster.
func (c *Cluster) RunUntil(t sim.Time) uint64 {
	var fired uint64
	for {
		i, at := c.next()
		if i < 0 || at > t {
			break
		}
		c.Nodes[i].Engine.Step()
		c.vt = at
		fired++
	}
	for _, n := range c.Nodes {
		n.Engine.Run(t) // no events remain ≤ t; this only advances the clock
	}
	if c.vt < t {
		c.vt = t
	}
	return fired
}

// Run advances global virtual time by d.
func (c *Cluster) Run(d sim.Duration) uint64 { return c.RunUntil(c.vt.Add(d)) }

// Fired sums events fired across every node engine.
func (c *Cluster) Fired() uint64 {
	var total uint64
	for _, n := range c.Nodes {
		total += n.Engine.Fired()
	}
	return total
}
