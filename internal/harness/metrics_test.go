package harness

import (
	"bytes"
	"testing"

	"khsim/internal/metrics"
	"khsim/internal/sim"
	"khsim/internal/workload"
)

// TestMetricsSnapshotDeterministic pins the registry's core promise: two
// runs with the same seed produce byte-identical snapshots.
func TestMetricsSnapshotDeterministic(t *testing.T) {
	run := func() string {
		_, node, err := RunWorkloadNode(KittenVM, workload.Stream(), 7, false)
		if err != nil {
			t.Fatal(err)
		}
		return node.SnapshotMetrics().Text()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-seed snapshots differ:\n%s\n---\n%s", a, b)
	}
	if a == "" {
		t.Fatal("empty snapshot")
	}
}

// TestMetricsSnapshotContents checks the cross-subsystem wiring: one
// KittenVM run must account hypervisor, kernel, guest and machine
// activity in a single snapshot.
func TestMetricsSnapshotContents(t *testing.T) {
	_, node, err := RunWorkloadNode(KittenVM, workload.Stream(), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	snap := node.SnapshotMetrics()
	for _, k := range []metrics.Key{
		metrics.K("el2", "world_switches").WithVM("job"),
		metrics.K("el2", "world_switch_ps").WithVM("job"),
		metrics.K("el2", "virq_injections").WithVM("job"),
		metrics.K("el2", "hypercall.run").WithVM("job"),
		metrics.K("kernel", "ticks"),
		metrics.K("guest", "ticks").WithVM("job"),
	} {
		if v, ok := snap.Counter(k); !ok || v == 0 {
			t.Errorf("counter %s = %d (present=%v), want > 0", k, v, ok)
		}
	}
	if v, ok := snap.Gauge(metrics.K("engine", "events_fired")); !ok || v == 0 {
		t.Errorf("gauge engine.events_fired = %g (present=%v), want > 0", v, ok)
	}
	if snap.DroppedSeries != 0 {
		t.Errorf("dropped series = %d, want 0", snap.DroppedSeries)
	}
	// Label cardinality stays tiny for a real run — far under the cap.
	n := len(snap.Counters) + len(snap.Gauges)
	if n == 0 || n > 256 {
		t.Errorf("series count = %d, want within (0, 256]", n)
	}
}

// TestNativeMetricsSnapshot: the native configuration has no hypervisor,
// but kernel and engine accounting must still appear.
func TestNativeMetricsSnapshot(t *testing.T) {
	_, node, err := RunWorkloadNode(Native, workload.Stream(), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	snap := node.SnapshotMetrics()
	if v, ok := snap.Counter(metrics.K("kernel", "ticks")); !ok || v == 0 {
		t.Errorf("kernel.ticks = %d (present=%v), want > 0", v, ok)
	}
	if _, ok := snap.Counter(metrics.K("el2", "world_switches").WithVM("job")); ok {
		t.Error("native run reports hypervisor world switches")
	}
}

// TestPerfettoExportGolden runs the Fig-5 configuration with spans on,
// exports Chrome trace-event JSON, and validates it: parseable, complete
// events well-nested per thread, and byte-identical across same-seed
// runs.
func TestPerfettoExportGolden(t *testing.T) {
	export := func() []byte {
		_, node, err := RunSelfishNode(KittenVM, 3, sim.FromSeconds(0.1), true)
		if err != nil {
			t.Fatal(err)
		}
		trace := node.Trace
		if trace.Len() == 0 {
			t.Fatal("traced run recorded nothing")
		}
		var buf bytes.Buffer
		if err := trace.WritePerfetto(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := export()
	if err := sim.ValidatePerfetto(a); err != nil {
		t.Fatalf("export failed validation: %v", err)
	}
	if !bytes.Contains(a, []byte(`"X"`)) {
		t.Fatal("no execution spans in export")
	}
	if !bytes.Equal(a, export()) {
		t.Fatal("same-seed Perfetto exports differ")
	}
}

// TestTraceSpansOffByDefault: the plain harness entry points must not
// record spans — the goldens depend on the default trace staying sparse.
func TestTraceSpansOffByDefault(t *testing.T) {
	_, node, err := RunWorkloadNode(KittenVM, workload.Stream(), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range node.Trace.Records() {
		if rec.Dur > 0 {
			t.Fatalf("span recorded without opt-in: %+v", rec)
		}
	}
}
