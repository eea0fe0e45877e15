// Package machine assembles the simulated ARMv8 node: cores that execute
// preemptible activities, the GIC, per-core generic timers, the physical
// memory map and DRAM model, and the architectural cost table. Kernels
// (internal/kitten, internal/linuxos) and the hypervisor
// (internal/hafnium) run *on* this substrate by installing dispatchers
// and scheduling activities.
package machine

import (
	"fmt"

	"khsim/internal/gic"
	"khsim/internal/mem"
	"khsim/internal/metrics"
	"khsim/internal/sim"
	"khsim/internal/timer"
)

// Config describes the simulated node.
type Config struct {
	Cores  int
	Freq   sim.Hertz
	DRAMMB int // DRAM size in MiB
	Seed   uint64
	SPIs   int // number of shared peripheral interrupt lines
	DRAM   DRAM
	Costs  Costs
}

// PineA64Config returns the paper's evaluation platform: 4×Cortex-A53 at
// 1.152 GHz with 2 GiB of DRAM.
func PineA64Config(seed uint64) Config {
	return Config{
		Cores:  4,
		Freq:   DefaultFreq,
		DRAMMB: 2048,
		Seed:   seed,
		SPIs:   128,
		DRAM:   DefaultDRAM(),
		Costs:  DefaultCosts(DefaultFreq),
	}
}

// Node is the simulated machine.
type Node struct {
	Engine  *sim.Engine
	GIC     *gic.Distributor
	Timers  *timer.Bank
	Cores   []*Core
	Mem     *mem.Map
	DRAM    DRAM
	Costs   Costs
	Freq    sim.Hertz
	Trace   *sim.Trace
	Metrics *metrics.Registry

	cfg Config

	// snaps are the software components participating in node snapshots,
	// in registration order (see RegisterSnapshotter).
	snaps []namedSnapshotter
	// forkGen counts timelines run from snapshots of this node.
	forkGen uint64
}

// DRAMBase is where DRAM starts in the node's physical map (matches the
// Allwinner A64's 0x4000_0000).
const DRAMBase mem.PA = 0x4000_0000

// New builds a node from cfg, laying out the physical memory map with a
// DRAM region and the GIC's MMIO window.
func New(cfg Config) (*Node, error) {
	if cfg.Cores <= 0 || cfg.Cores > gic.MaxCores {
		return nil, fmt.Errorf("machine: config needs 1 to %d cores, got %d", gic.MaxCores, cfg.Cores)
	}
	if cfg.Freq <= 0 {
		return nil, fmt.Errorf("machine: non-positive frequency")
	}
	if cfg.DRAMMB <= 0 {
		return nil, fmt.Errorf("machine: non-positive DRAM size")
	}
	if cfg.SPIs <= 0 {
		cfg.SPIs = 128
	}
	eng := sim.NewEngine(cfg.Seed)
	dist := gic.New(cfg.Cores, cfg.SPIs)
	n := &Node{
		Engine:  eng,
		GIC:     dist,
		Timers:  timer.NewBank(eng, dist, cfg.Cores),
		Mem:     mem.NewMap(),
		DRAM:    cfg.DRAM,
		Costs:   cfg.Costs,
		Freq:    cfg.Freq,
		Trace:   sim.NewTrace(),
		Metrics: metrics.NewRegistry(),
		cfg:     cfg,
	}
	if err := n.Mem.Add(mem.Region{Name: "dram", Base: DRAMBase, Size: uint64(cfg.DRAMMB) << 20}); err != nil {
		return nil, err
	}
	if err := n.Mem.Add(mem.Region{Name: "gic", Base: 0x01C8_0000, Size: 0x10000, Attr: mem.Attr{Device: true}}); err != nil {
		return nil, err
	}
	if err := n.Mem.Add(mem.Region{Name: "uart", Base: 0x01C2_8000, Size: 0x1000, Attr: mem.Attr{Device: true}}); err != nil {
		return nil, err
	}
	if err := n.Mem.Add(mem.Region{Name: "mmc", Base: 0x01C0_F000, Size: 0x1000, Attr: mem.Attr{Device: true}}); err != nil {
		return nil, err
	}
	if err := n.Mem.Add(mem.Region{Name: "usb", Base: 0x01C1_9000, Size: 0x1000, Attr: mem.Attr{Device: true}}); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Cores; i++ {
		c := &Core{id: i, node: n, eng: eng, trace: n.Trace, idleSince: 0}
		c.done = eng.NewRegister("core.complete", c.completeCur)
		n.Cores = append(n.Cores, c)
	}
	dist.SetSink(n)
	return n, nil
}

// MustNew is New for known-good configs; it panics on error.
func MustNew(cfg Config) *Node {
	n, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// AssertIRQ implements gic.Asserter by fanning out to the core.
func (n *Node) AssertIRQ(core int) { n.Cores[core].AssertIRQ() }

// Config returns the node's construction config.
func (n *Node) Config() Config { return n.cfg }

// Cycles converts a cycle count at the node frequency to a duration.
func (n *Node) Cycles(c float64) sim.Duration { return sim.Cycles(c, n.Freq) }

// Now is shorthand for the engine clock.
func (n *Node) Now() sim.Time { return n.Engine.Now() }

// SnapshotMetrics publishes the pull-side collectors — GIC delivery
// counts, per-core TLB invalidations and execution accounting, engine
// totals — into the registry as gauges and returns a canonical snapshot
// of every series. Pull collectors run only here, at snapshot time, so leaving
// metrics on never perturbs the simulation.
func (n *Node) SnapshotMetrics() *metrics.Snapshot {
	m := n.Metrics
	g := n.GIC.Stats()
	m.Gauge(metrics.K("gic", "raised")).Set(float64(g.Raised))
	m.Gauge(metrics.K("gic", "acked")).Set(float64(g.Acked))
	m.Gauge(metrics.K("gic", "eois")).Set(float64(g.EOIs))
	m.Gauge(metrics.K("gic", "spurious")).Set(float64(g.Spurious))
	m.Gauge(metrics.K("gic", "dropped")).Set(float64(g.Dropped))
	for _, c := range n.Cores {
		m.Gauge(metrics.K("core", "busy_ps").WithCore(c.id)).Set(float64(c.busy))
		m.Gauge(metrics.K("core", "preemptions").WithCore(c.id)).Set(float64(c.preempts))
		// No TLB is modelled, so hits, misses and fills always read 0.
		m.Gauge(metrics.K("tlb", "hits").WithCore(c.id)).Set(0)
		m.Gauge(metrics.K("tlb", "misses").WithCore(c.id)).Set(0)
		m.Gauge(metrics.K("tlb", "fills").WithCore(c.id)).Set(0)
		m.Gauge(metrics.K("tlb", "invalidations").WithCore(c.id)).Set(float64(c.tlbInvalidations))
	}
	m.Gauge(metrics.K("engine", "events_fired")).Set(float64(n.Engine.Fired()))
	m.Gauge(metrics.K("engine", "now_ps")).Set(float64(n.Engine.Now()))
	return m.Snapshot()
}
