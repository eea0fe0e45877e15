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
// broken toward the lowest node index, by asking every engine for its
// next event. It returns -1 when every engine is drained.
func (c *Cluster) next() (int, sim.Time) {
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
