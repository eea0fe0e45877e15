package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestKeyString(t *testing.T) {
	cases := []struct {
		k    Key
		want string
	}{
		{K("el2", "traps"), "el2.traps"},
		{K("el2", "traps").WithVM("job"), "el2.traps{vm=job}"},
		{K("el2", "traps").WithCore(2), "el2.traps{core=2}"},
		{K("el2", "traps").WithVM("job").WithCore(2), "el2.traps{vm=job,core=2}"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("Key.String() = %q, want %q", got, c.want)
		}
	}
}

func TestCounterIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter(K("el2", "traps").WithVM("job"))
	b := r.Counter(K("el2", "traps").WithVM("job"))
	if a != b {
		t.Fatalf("same key returned distinct counters")
	}
	other := r.Counter(K("el2", "traps").WithVM("primary"))
	if a == other {
		t.Fatalf("distinct keys returned the same counter")
	}
	a.Inc()
	a.Add(4)
	if got := b.Value(); got != 5 {
		t.Fatalf("counter value = %d, want 5", got)
	}
}

func TestSnapshotCanonicalOrder(t *testing.T) {
	// Insert in scrambled order; the snapshot must come out sorted by
	// (subsystem, name, vm, core) regardless.
	r := NewRegistry()
	keys := []Key{
		K("tlb", "invalidations").WithCore(1),
		K("el2", "traps").WithVM("job"),
		K("tlb", "invalidations").WithCore(0),
		K("el2", "runs"),
		K("el2", "traps").WithVM("alpha"),
		K("kernel", "ticks"),
	}
	for i, k := range keys {
		r.Counter(k).Add(uint64(i + 1))
	}
	snap := r.Snapshot()
	var got []string
	for _, p := range snap.Counters {
		got = append(got, p.Key.String())
	}
	want := []string{
		"el2.runs",
		"el2.traps{vm=alpha}",
		"el2.traps{vm=job}",
		"kernel.ticks",
		"tlb.invalidations{core=0}",
		"tlb.invalidations{core=1}",
	}
	if len(got) != len(want) {
		t.Fatalf("snapshot has %d counters, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("snapshot order[%d] = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestSnapshotTextDeterministic(t *testing.T) {
	build := func() string {
		r := NewRegistry()
		// Map-iteration order inside the registry must never leak out.
		for i := 0; i < 32; i++ {
			r.Counter(K("el2", fmt.Sprintf("c%02d", i%7)).WithCore(i % 3)).Add(uint64(i))
			r.Gauge(K("tlb", fmt.Sprintf("g%02d", i%5))).Set(float64(i) * 1.5)
		}
		return r.Snapshot().Text()
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("two identical registries rendered differently:\n%s\n---\n%s", a, b)
	}
}

func TestCardinalityCap(t *testing.T) {
	r := NewRegistryCap(4)
	var real []*Counter
	for i := 0; i < 10; i++ {
		real = append(real, r.Counter(K("s", fmt.Sprintf("n%d", i))))
	}
	if got := r.Series(); got != 4 {
		t.Fatalf("Series() = %d, want 4 (capped)", got)
	}
	if got := r.Dropped(); got != 6 {
		t.Fatalf("Dropped() = %d, want 6", got)
	}
	// Past the cap every new key shares the sink — call sites must stay
	// unconditional and never crash.
	if real[4] != real[9] {
		t.Fatalf("over-cap counters should share the sink")
	}
	real[9].Inc() // must not panic
	snap := r.Snapshot()
	if snap.DroppedSeries != 6 {
		t.Fatalf("snapshot DroppedSeries = %d, want 6", snap.DroppedSeries)
	}
	if len(snap.Counters) != 4 {
		t.Fatalf("snapshot has %d counters, want 4", len(snap.Counters))
	}
}

func TestCachedCounterIsLazy(t *testing.T) {
	r := NewRegistryCap(2)
	var slot *Counter
	if r.Series() != 0 || slot != nil {
		t.Fatal("slot filled before first use")
	}
	c := r.CachedCounter(&slot, K("el2", "hypercall.run").WithVM("job"))
	if slot != c || r.Series() != 1 || c != r.Counter(K("el2", "hypercall.run").WithVM("job")) {
		t.Fatalf("first use did not register and cache the series (series=%d)", r.Series())
	}
	if r.CachedCounter(&slot, K("other", "key")) != c {
		t.Fatal("a filled slot must be served without a lookup")
	}
	// Past the cap the sink is returned but never cached, so every use
	// counts a dropped series, as an uncached Counter call would.
	r.Counter(K("s", "fill"))
	var over *Counter
	for i := 0; i < 3; i++ {
		r.CachedCounter(&over, K("s", "over")).Inc()
	}
	if over != nil || r.Dropped() != 3 {
		t.Fatalf("over-cap slot=%v dropped=%d, want nil and 3", over, r.Dropped())
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter(K("el2", "traps").WithVM("job")).Add(42)
	r.Gauge(K("tlb", "invalidations").WithCore(0)).Set(1234)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"counter el2.traps{vm=job} 42\n",
		"gauge tlb.invalidations{core=0} 1234\n",
		"dropped_series 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter(K("el2", "traps").WithVM("job")).Add(42)
	r.Gauge(K("tlb", "invalidations").WithCore(1)).Set(3)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v\n%s", err, buf.String())
	}
	if len(decoded.Counters) != 1 || decoded.Counters[0].Value != 42 {
		t.Fatalf("decoded counters = %+v", decoded.Counters)
	}
	if len(decoded.Gauges) != 1 || decoded.Gauges[0].Value != 3 || decoded.Gauges[0].Key.Core != 1 {
		t.Fatalf("decoded gauges = %+v", decoded.Gauges)
	}
}

func TestSnapshotLookups(t *testing.T) {
	r := NewRegistry()
	r.Counter(K("el2", "traps")).Add(7)
	r.Gauge(K("tlb", "invalidations")).Set(3.5)
	snap := r.Snapshot()
	if v, ok := snap.Counter(K("el2", "traps")); !ok || v != 7 {
		t.Fatalf("Counter lookup = %d, %v", v, ok)
	}
	if _, ok := snap.Counter(K("el2", "nope")); ok {
		t.Fatalf("missing counter reported present")
	}
	if v, ok := snap.Gauge(K("tlb", "invalidations")); !ok || v != 3.5 {
		t.Fatalf("Gauge lookup = %g, %v", v, ok)
	}
}

// TestRegistryRestore rewinds a registry to a snapshot: every instrument
// the snapshot read holds its recorded value again, a series registered
// after the snapshot reads zero, and the restore allocates nothing. The
// registry holds a node's worth of per-core series, too many for any
// restore-time index to fit on the stack.
func TestRegistryRestore(t *testing.T) {
	r := NewRegistry()
	for core := 0; core < 64; core++ {
		r.Counter(K("el2", "traps").WithCore(core)).Add(uint64(core))
	}
	c := r.Counter(K("el2", "traps").WithCore(1))
	g := r.Gauge(K("tlb", "hit_rate"))
	c.Add(3)
	g.Set(0.5)
	snap := r.Snapshot()

	c.Add(7)
	g.Set(2)
	lateC := r.Counter(K("kernel", "ticks"))
	lateG := r.Gauge(K("tlb", "live"))
	lateC.Inc()
	lateG.Set(4)

	r.Restore(snap)
	if c.Value() != 4 || g.Value() != 0.5 {
		t.Fatalf("counter %d, gauge %g after restore, want 4 and 0.5", c.Value(), g.Value())
	}
	if lateC.Value() != 0 || lateG.Value() != 0 {
		t.Fatal("a series registered after the snapshot is not zero after restore")
	}
	c.Add(1)
	lateC.Add(1)
	if allocs := testing.AllocsPerRun(100, func() { r.Restore(snap) }); allocs != 0 {
		t.Errorf("Restore allocates %.1f objects, want 0", allocs)
	}
	// The rewound registry reads as the snapshot did, the later series
	// listed at zero.
	got := r.Snapshot()
	for _, p := range snap.Counters {
		if v, _ := got.Counter(p.Key); v != p.Value {
			t.Errorf("%s = %d after restore, want %d", p.Key, v, p.Value)
		}
	}
	if v, ok := got.Counter(K("kernel", "ticks")); !ok || v != 0 {
		t.Errorf("kernel.ticks = %d (present %v) after restore, want a zero series", v, ok)
	}
}
