package net

import (
	"testing"

	"khsim/internal/sim"
)

// rig builds an n-node fabric with one engine per node and a recording
// handler on each.
type rig struct {
	f       *Fabric
	engines []*sim.Engine
	got     [][]Message
}

func newRig(t *testing.T, n int, link LinkConfig) *rig {
	t.Helper()
	f, err := NewFabric(n, link)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{f: f, got: make([][]Message, n)}
	for i := 0; i < n; i++ {
		eng := sim.NewEngine(uint64(i) + 1)
		r.engines = append(r.engines, eng)
		if err := f.Attach(NodeID(i), eng); err != nil {
			t.Fatal(err)
		}
		id := i
		if err := f.Bind(NodeID(i), func(m Message) { r.got[id] = append(r.got[id], m) }); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// runAll drains every engine in global timestamp order (the same rule
// machine.Cluster uses), so cross-engine deliveries fire causally.
func (r *rig) runAll() {
	for {
		best, bt := -1, sim.Time(0)
		for i, e := range r.engines {
			if t, ok := e.NextAt(); ok && (best < 0 || t < bt) {
				best, bt = i, t
			}
		}
		if best < 0 {
			return
		}
		r.engines[best].Step()
	}
}

func TestFabricChargesSerializationAndLatency(t *testing.T) {
	link := LinkConfig{Latency: sim.FromMicros(50), Bandwidth: 1e6} // 1 MB/s
	r := newRig(t, 2, link)
	// 1000 bytes at 1 MB/s = 1 ms tx, plus 50 µs propagation.
	r.engines[0].ScheduleNamed(sim.Time(0), "send", func() {
		if err := r.f.Send(0, 1, "data", "hello", 1000); err != nil {
			t.Error(err)
		}
	})
	r.runAll()
	if len(r.got[1]) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(r.got[1]))
	}
	want := sim.Time(0).Add(sim.FromMicros(1000)).Add(sim.FromMicros(50))
	if now := r.engines[1].Now(); now != want {
		t.Fatalf("delivered at %v, want %v", now, want)
	}
}

func TestFabricFIFOSerialization(t *testing.T) {
	link := LinkConfig{Latency: sim.FromMicros(10), Bandwidth: 1e6}
	r := newRig(t, 2, link)
	// Two back-to-back sends at t=0: the second queues behind the first
	// on the directed link, so deliveries are 1 ms apart.
	r.engines[0].ScheduleNamed(sim.Time(0), "send", func() {
		r.f.Send(0, 1, "a", nil, 1000)
		r.f.Send(0, 1, "b", nil, 1000)
	})
	r.runAll()
	if len(r.got[1]) != 2 {
		t.Fatalf("delivered %d messages, want 2", len(r.got[1]))
	}
	if r.got[1][0].Kind != "a" || r.got[1][1].Kind != "b" {
		t.Fatalf("out-of-order delivery: %q then %q", r.got[1][0].Kind, r.got[1][1].Kind)
	}
	if now := r.engines[1].Now(); now != sim.Time(0).Add(sim.FromMicros(2010)) {
		t.Fatalf("second delivery at %v, want 2.01ms", now)
	}
}

func TestFabricPartitionDropsInFlight(t *testing.T) {
	r := newRig(t, 2, DefaultLink())
	r.engines[0].ScheduleNamed(sim.Time(0), "send", func() {
		r.f.Send(0, 1, "doomed", nil, 64)
		// Partition the destination while the message is in flight.
		if err := r.f.Partition(1); err != nil {
			t.Error(err)
		}
	})
	r.runAll()
	if len(r.got[1]) != 0 {
		t.Fatalf("partitioned node received %d messages", len(r.got[1]))
	}
	st := r.f.Stats()
	if st.DroppedPartitionInFlight != 1 || st.DroppedPartition != 0 || st.Delivered != 0 {
		t.Fatalf("stats = %+v, want 1 in-flight partition drop", st)
	}
	// After healing, traffic flows again.
	r.engines[0].ScheduleNamed(r.engines[0].Now().Add(sim.FromMicros(1)), "send2", func() {
		r.f.Heal(1)
		r.f.Send(0, 1, "ok", nil, 64)
	})
	r.runAll()
	if len(r.got[1]) != 1 {
		t.Fatalf("healed node received %d messages, want 1", len(r.got[1]))
	}
}

func TestFabricDropNextConsumesExactly(t *testing.T) {
	r := newRig(t, 2, DefaultLink())
	if err := r.f.DropNext(1, 2); err != nil {
		t.Fatal(err)
	}
	r.engines[0].ScheduleNamed(sim.Time(0), "send", func() {
		for i := 0; i < 3; i++ {
			r.f.Send(0, 1, "m", nil, 64)
		}
	})
	r.runAll()
	if len(r.got[1]) != 1 {
		t.Fatalf("delivered %d messages, want 1 (2 dropped)", len(r.got[1]))
	}
	if st := r.f.Stats(); st.DroppedInjected != 2 {
		t.Fatalf("stats = %+v, want 2 injected drops", st)
	}
}

func TestFabricDelaySpikeWindow(t *testing.T) {
	link := LinkConfig{Latency: sim.FromMicros(10), Bandwidth: 1e9}
	r := newRig(t, 2, link)
	extra := sim.FromMicros(500)
	if err := r.f.DelaySpike(1, extra, sim.FromMicros(100)); err != nil {
		t.Fatal(err)
	}
	// Sent inside the window: stretched. Sent after: normal.
	r.engines[0].ScheduleNamed(sim.Time(0), "in-window", func() {
		r.f.Send(0, 1, "slow", nil, 64)
	})
	r.engines[0].ScheduleNamed(sim.Time(0).Add(sim.FromMicros(200)), "after", func() {
		r.f.Send(0, 1, "fast", nil, 64)
	})
	r.runAll()
	if len(r.got[1]) != 2 {
		t.Fatalf("delivered %d messages, want 2", len(r.got[1]))
	}
	// The spiked message left at 0 but lands after the un-spiked one.
	if r.got[1][0].Kind != "fast" || r.got[1][1].Kind != "slow" {
		t.Fatalf("want spike to reorder: got %q then %q", r.got[1][0].Kind, r.got[1][1].Kind)
	}
	if st := r.f.Stats(); st.DelayedInjected != 1 {
		t.Fatalf("stats = %+v, want 1 delayed", st)
	}
}

func TestFabricRejectsBadConfig(t *testing.T) {
	if _, err := NewFabric(0, DefaultLink()); err == nil {
		t.Fatal("accepted 0 nodes")
	}
	if _, err := NewFabric(2, LinkConfig{Latency: 0, Bandwidth: 1e9}); err == nil {
		t.Fatal("accepted zero latency (breaks cross-node lookahead)")
	}
	if _, err := NewFabric(2, LinkConfig{Latency: sim.FromMicros(1), Bandwidth: 0}); err == nil {
		t.Fatal("accepted zero bandwidth")
	}
	r := newRig(t, 2, DefaultLink())
	sendErr := func() error {
		var err error
		r.engines[0].ScheduleNamed(r.engines[0].Now(), "bad", func() {
			err = r.f.Send(0, 0, "self", nil, 64)
		})
		r.runAll()
		return err
	}
	if sendErr() == nil {
		t.Fatal("accepted self-send")
	}
}

func TestFabricDeterministicSequence(t *testing.T) {
	run := func() []uint64 {
		r := newRig(t, 3, DefaultLink())
		for i := 0; i < 3; i++ {
			src := i
			r.engines[i].ScheduleNamed(sim.Time(0).Add(sim.FromMicros(float64(i+1))), "send", func() {
				r.f.Send(NodeID(src), NodeID((src+1)%3), "ring", nil, 128)
			})
		}
		r.runAll()
		var seqs []uint64
		for i := range r.got {
			for _, m := range r.got[i] {
				seqs = append(seqs, m.Seq)
			}
		}
		return seqs
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 3 {
		t.Fatalf("runs delivered %d and %d messages", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sequence diverged at %d: %v vs %v", i, a, b)
		}
	}
}

func TestStatsCountsDeliveriesAcrossDestinations(t *testing.T) {
	r := newRig(t, 3, DefaultLink())
	// Deliveries land on different destination nodes; Stats must count
	// every one of them.
	r.engines[0].ScheduleNamed(sim.Time(0), "send", func() {
		_ = r.f.Send(0, 1, "x", nil, 64)
		_ = r.f.Send(0, 2, "y", nil, 64)
	})
	r.engines[1].ScheduleNamed(sim.Time(0), "send", func() {
		_ = r.f.Send(1, 2, "z", nil, 64)
	})
	r.runAll()
	s := r.f.Stats()
	if s.Delivered != 3 || s.Sent != 3 {
		t.Fatalf("Stats = %+v, want Sent 3 / Delivered 3", s)
	}
}
