// Package metrics is the simulator's unified observability registry: a
// deterministic, allocation-light home for the counters, gauges and
// fixed-bucket histograms every subsystem publishes. The paper's entire
// evaluation (§V) is an exercise in *measuring* isolation overhead —
// world switches, hypercalls, injected interrupts, TLB traffic — so the
// registry turns "the simulator says X µs" into an auditable account of
// where the cycles went: one snapshot per run, every series keyed by
// subsystem/name plus optional VM and core labels.
//
// Design rules:
//
//   - Deterministic: a snapshot is sorted by key, and nothing in the
//     registry touches the simulation RNG or event queue, so two runs
//     with the same seed produce byte-identical snapshots and enabling
//     metrics never perturbs the simulation (the golden-trace tests pin
//     this).
//   - Allocation-light: hot paths (world switches, injections) cache
//     *Counter pointers at construction; get-or-create lookups hash a
//     comparable Key struct without allocating.
//   - Bounded cardinality: a registry holds at most its configured
//     series cap; past it, new keys coalesce into a shared sink series
//     and a dropped-series count, so a label explosion cannot eat the
//     host's memory.
package metrics

import (
	"fmt"
	"sort"
)

// NoCore marks a Key as not scoped to a physical core.
const NoCore = -1

// Key identifies one metric series: a subsystem ("el2", "kernel",
// "shmring", ...), a name within it, and optional VM / core labels.
// Build keys with K/WithVM/WithCore — a hand-rolled literal must set
// Core to NoCore explicitly or it will silently label the series with
// core 0.
type Key struct {
	Subsystem string
	Name      string
	VM        string // "" = not VM-scoped
	Core      int    // NoCore = not core-scoped
}

// K returns an unlabelled key for subsystem.name.
func K(subsystem, name string) Key {
	return Key{Subsystem: subsystem, Name: name, Core: NoCore}
}

// WithVM returns the key labelled with a VM name.
func (k Key) WithVM(vm string) Key { k.VM = vm; return k }

// WithCore returns the key labelled with a physical core.
func (k Key) WithCore(core int) Key { k.Core = core; return k }

// String renders the key in its canonical dotted form, with core and VM
// qualifiers when set.
func (k Key) String() string {
	s := k.Subsystem + "." + k.Name
	switch {
	case k.VM != "" && k.Core != NoCore:
		return fmt.Sprintf("%s{vm=%s,core=%d}", s, k.VM, k.Core)
	case k.VM != "":
		return s + "{vm=" + k.VM + "}"
	case k.Core != NoCore:
		return fmt.Sprintf("%s{core=%d}", s, k.Core)
	}
	return s
}

// keyLess is the canonical snapshot order.
func keyLess(a, b Key) bool {
	if a.Subsystem != b.Subsystem {
		return a.Subsystem < b.Subsystem
	}
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	if a.VM != b.VM {
		return a.VM < b.VM
	}
	return a.Core < b.Core
}

// Counter is a monotonically increasing uint64. Durations are published
// as picosecond counts (the sim.Duration raw unit).
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value reports the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is a last-write-wins float64, for pull-side collectors that
// publish another subsystem's state at snapshot time.
type Gauge struct{ v float64 }

// Set overwrites the value.
func (g *Gauge) Set(v float64) { g.v = v }

// Value reports the current value.
func (g *Gauge) Value() float64 { return g.v }

// Histogram is a fixed-width-bucket histogram over [Lo, Hi);
// observations outside the range land in the under/overflow counters
// (mirroring stats.Histogram, but registry-owned and snapshotable).
type Histogram struct {
	Lo, Hi   float64
	buckets  []uint64
	under    uint64
	over     uint64
	width    float64
	observed uint64
}

func newHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic(fmt.Sprintf("metrics: invalid histogram shape [%g,%g)/%d", lo, hi, n))
	}
	return &Histogram{Lo: lo, Hi: hi, buckets: make([]uint64, n), width: (hi - lo) / float64(n)}
}

// Observe adds one observation.
func (h *Histogram) Observe(v float64) {
	h.observed++
	switch {
	case v < h.Lo:
		h.under++
	case v >= h.Hi:
		h.over++
	default:
		i := int((v - h.Lo) / h.width)
		if i >= len(h.buckets) { // float edge at Hi-epsilon
			i = len(h.buckets) - 1
		}
		h.buckets[i]++
	}
}

// Total reports observations including under/overflow.
func (h *Histogram) Total() uint64 { return h.observed }

// Quantile estimates the p-th percentile (0 ≤ p ≤ 100) from the bucket
// counts by linear interpolation inside the bucket holding the target
// rank. Underflow observations clamp to Lo and overflow to Hi — a
// histogram can only bound what left its range, so size [Lo,Hi) to the
// tail being asked about. Reports (0, false) with no observations.
func (h *Histogram) Quantile(p float64) (float64, bool) {
	if h.observed == 0 {
		return 0, false
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := p / 100 * float64(h.observed)
	cum := float64(h.under)
	if rank <= cum {
		return h.Lo, true
	}
	for i, n := range h.buckets {
		next := cum + float64(n)
		if rank <= next && n > 0 {
			frac := (rank - cum) / float64(n)
			return h.Lo + (float64(i)+frac)*h.width, true
		}
		cum = next
	}
	return h.Hi, true
}

// Buckets returns a copy of the bucket counts.
func (h *Histogram) Buckets() []uint64 {
	out := make([]uint64, len(h.buckets))
	copy(out, h.buckets)
	return out
}

// DefaultMaxSeries bounds a registry's label cardinality. The simulator
// has a handful of subsystems × VMs × cores — a few hundred series; the
// cap exists so a label-generation bug degrades to a counted sink
// instead of unbounded growth.
const DefaultMaxSeries = 4096

// Registry is the per-node metric store. Get-or-create accessors return
// live instrument pointers callers may cache.
type Registry struct {
	counters map[Key]*Counter
	gauges   map[Key]*Gauge
	hists    map[Key]*Histogram
	max      int
	dropped  uint64
	sinkC    Counter
	sinkG    Gauge
	sinkH    *Histogram
}

// NewRegistry returns an empty registry with the default series cap.
func NewRegistry() *Registry { return NewRegistryCap(DefaultMaxSeries) }

// NewRegistryCap returns an empty registry holding at most maxSeries
// distinct series across all instrument kinds.
func NewRegistryCap(maxSeries int) *Registry {
	if maxSeries < 1 {
		maxSeries = 1
	}
	return &Registry{
		counters: make(map[Key]*Counter),
		gauges:   make(map[Key]*Gauge),
		hists:    make(map[Key]*Histogram),
		max:      maxSeries,
	}
}

// Series reports the number of registered series.
func (r *Registry) Series() int {
	return len(r.counters) + len(r.gauges) + len(r.hists)
}

// Dropped reports how many series creations the cap rejected.
func (r *Registry) Dropped() uint64 { return r.dropped }

func (r *Registry) room() bool { return r.Series() < r.max }

// Counter returns the counter registered under k, creating it if there
// is room. Past the cap it returns the shared sink counter (so call
// sites stay unconditional) and counts the dropped series.
func (r *Registry) Counter(k Key) *Counter {
	if c, ok := r.counters[k]; ok {
		return c
	}
	if !r.room() {
		r.dropped++
		return &r.sinkC
	}
	c := &Counter{}
	r.counters[k] = c
	return c
}

// CachedCounter is Counter through a caller-owned cache slot, for hot
// paths whose series must stay lazy. The first call registers k, so a
// snapshot lists the series only once it has been touched, exactly as
// with Counter; later calls return *slot without a map lookup. A key the
// cap rejects is not cached, so each call past the cap counts a dropped
// series, as Counter does.
func (r *Registry) CachedCounter(slot **Counter, k Key) *Counter {
	if c := *slot; c != nil {
		return c
	}
	c := r.Counter(k)
	if c != &r.sinkC {
		*slot = c
	}
	return c
}

// Gauge returns the gauge registered under k, creating it if there is
// room (sink semantics as Counter).
func (r *Registry) Gauge(k Key) *Gauge {
	if g, ok := r.gauges[k]; ok {
		return g
	}
	if !r.room() {
		r.dropped++
		return &r.sinkG
	}
	g := &Gauge{}
	r.gauges[k] = g
	return g
}

// Histogram returns the histogram registered under k, creating it with
// n equal buckets over [lo, hi) if there is room. An existing histogram
// keeps its original shape regardless of the arguments.
func (r *Registry) Histogram(k Key, lo, hi float64, n int) *Histogram {
	if h, ok := r.hists[k]; ok {
		return h
	}
	if !r.room() {
		r.dropped++
		if r.sinkH == nil {
			r.sinkH = newHistogram(lo, hi, n)
		}
		return r.sinkH
	}
	h := newHistogram(lo, hi, n)
	r.hists[k] = h
	return h
}

func (r *Registry) sortedCounterKeys() []Key {
	keys := make([]Key, 0, len(r.counters))
	for k := range r.counters {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	return keys
}

func (r *Registry) sortedGaugeKeys() []Key {
	keys := make([]Key, 0, len(r.gauges))
	for k := range r.gauges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	return keys
}

func (r *Registry) sortedHistKeys() []Key {
	keys := make([]Key, 0, len(r.hists))
	for k := range r.hists {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	return keys
}
