package machine

import (
	"fmt"
	"testing"

	"khsim/internal/net"
	"khsim/internal/sim"
)

func testClusterConfig(nodes int, seed uint64) ClusterConfig {
	return ClusterConfig{
		Nodes: nodes,
		Node: Config{
			Cores:  2,
			Freq:   DefaultFreq,
			DRAMMB: 64,
			SPIs:   32,
			DRAM:   DefaultDRAM(),
			Costs:  DefaultCosts(DefaultFreq),
		},
		Seed: seed,
	}
}

func TestClusterFiresGlobalOrder(t *testing.T) {
	c := MustNewCluster(testClusterConfig(3, 7))
	var order []int
	for i, n := range c.Nodes {
		id := i
		// Node i schedules at (3-i) µs, so firing order must be 2,1,0.
		n.Engine.ScheduleNamed(sim.Time(0).Add(sim.FromMicros(float64(3-i))), "t", func() {
			order = append(order, id)
		})
	}
	// Same-instant tie: nodes 0 and 1 both at 10 µs — lowest index first.
	at := sim.Time(0).Add(sim.FromMicros(10))
	c.Nodes[1].Engine.ScheduleNamed(at, "tie", func() { order = append(order, 11) })
	c.Nodes[0].Engine.ScheduleNamed(at, "tie", func() { order = append(order, 10) })
	c.Run(sim.FromMicros(20))
	want := []int{2, 1, 0, 10, 11}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	if c.Now() != sim.Time(0).Add(sim.FromMicros(20)) {
		t.Fatalf("Now = %v after Run(20µs)", c.Now())
	}
	for _, n := range c.Nodes {
		if n.Engine.Now() != c.Now() {
			t.Fatalf("node clock %v lags cluster %v", n.Engine.Now(), c.Now())
		}
	}
}

func TestClusterDerivesDistinctSeeds(t *testing.T) {
	c := MustNewCluster(testClusterConfig(4, 99))
	// Distinct engine seeds -> distinct RNG streams: the first draws on
	// each node should not all collide.
	draws := map[uint64]bool{}
	for _, n := range c.Nodes {
		draws[n.Engine.RNG().Uint64()] = true
	}
	if len(draws) < 3 {
		t.Fatalf("node RNG streams collide: %d distinct draws from 4 nodes", len(draws))
	}
}

func TestClusterFabricDelivery(t *testing.T) {
	c := MustNewCluster(testClusterConfig(2, 5))
	var got []string
	if err := c.Fabric.Bind(1, func(m net.Message) {
		got = append(got, m.Kind)
	}); err != nil {
		t.Fatal(err)
	}
	c.Nodes[0].Engine.ScheduleNamed(sim.Time(0).Add(sim.FromMicros(1)), "send", func() {
		if err := c.Fabric.Send(0, 1, "ping", nil, 64); err != nil {
			t.Error(err)
		}
	})
	c.Run(sim.FromMicros(500))
	if len(got) != 1 || got[0] != "ping" {
		t.Fatalf("delivered %v, want [ping]", got)
	}
	if c.Fired() == 0 {
		t.Fatal("Fired() should count the cross-node delivery")
	}
}

func TestClusterRejectsBadConfig(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{Nodes: 0}); err == nil {
		t.Fatal("accepted 0 nodes")
	}
}

// installRing wires a messaging workload onto c: each node ticks on its
// own period, sending a counter-stamped ping to its ring successor, and
// every delivery is logged, per node, with its fabric sequence number.
func installRing(t *testing.T, c *Cluster, horizon sim.Time) [][]string {
	t.Helper()
	n := len(c.Nodes)
	logs := make([][]string, n)
	for i := 0; i < n; i++ {
		id := i
		eng := c.Nodes[i].Engine
		if err := c.Fabric.Bind(net.NodeID(i), func(m net.Message) {
			logs[id] = append(logs[id], fmt.Sprintf("recv %s seq=%d from=%d at=%d", m.Kind, m.Seq, m.From, eng.Now()))
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		id := i
		eng := c.Nodes[i].Engine
		// Periods repeat every three nodes, so same-instant ticks on
		// different nodes exercise the node-index tie-break.
		period := sim.FromMicros(float64(11 + 7*(i%3)))
		count := 0
		var tick func()
		tick = func() {
			count++
			logs[id] = append(logs[id], fmt.Sprintf("tick %d at=%d", count, eng.Now()))
			kind := fmt.Sprintf("ping-%d-%d", id, count)
			if err := c.Fabric.Send(net.NodeID(id), net.NodeID((id+1)%n), kind, nil, 128+16*id); err != nil {
				t.Error(err)
			}
			if next := eng.Now().Add(period); next <= horizon {
				eng.ScheduleNamed(next, "tick", tick)
			}
		}
		eng.ScheduleNamed(sim.Time(0).Add(period), "tick", tick)
	}
	return logs
}

// TestClusterRestoreReplays rewinds a ring-messaging rack to a mid-run
// snapshot and checks that the replay ends exactly as a straight run.
func TestClusterRestoreReplays(t *testing.T) {
	horizon := sim.Time(0).Add(sim.FromMicros(2000))
	mid := sim.Time(0).Add(sim.FromMicros(1000))

	ref := MustNewCluster(testClusterConfig(3, 21))
	installRing(t, ref, horizon)
	ref.RunUntil(horizon)

	c := MustNewCluster(testClusterConfig(3, 21))
	installRing(t, c, horizon)
	c.RunUntil(mid)
	snap := c.Snapshot()
	c.RunUntil(sim.Time(0).Add(sim.FromMicros(1500)))
	c.Restore(snap)
	c.RunUntil(horizon)
	if rs, cs := ref.Fabric.Stats(), c.Fabric.Stats(); rs != cs {
		t.Fatalf("replay after Restore diverged from straight run:\nref %+v\ngot %+v", rs, cs)
	}
	if ref.Now() != c.Now() {
		t.Fatalf("replay Now %d != straight-run Now %d", c.Now(), ref.Now())
	}
}

func TestClusterRunUntilClockSemantics(t *testing.T) {
	c := MustNewCluster(testClusterConfig(3, 11))
	var order []int
	at := sim.Time(0).Add(sim.FromMicros(4))
	// Insert the same-instant tie in reverse node order: firing must still
	// go lowest index first.
	for i := 2; i >= 0; i-- {
		id := i
		c.Nodes[i].Engine.ScheduleNamed(at, "tie", func() { order = append(order, id) })
	}
	c.Nodes[1].Engine.ScheduleNamed(sim.Time(0).Add(sim.FromMicros(9)), "late", func() { order = append(order, 91) })

	prev := c.Now()
	fired := uint64(0)
	for c.Step() {
		if c.Now() < prev {
			t.Fatalf("global virtual time went backwards: %d -> %d", prev, c.Now())
		}
		prev = c.Now()
		fired++
	}
	if fired != 4 {
		t.Fatalf("stepped %d events, want 4", fired)
	}
	want := []int{0, 1, 2, 91}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	// RunUntil past the last event is a pure clock advance: every node's
	// clock — and the cluster's — lands exactly on the horizon.
	horizon := sim.Time(0).Add(sim.FromMicros(250))
	if n := c.RunUntil(horizon); n != 0 {
		t.Fatalf("RunUntil with a drained queue fired %d events", n)
	}
	if c.Now() != horizon {
		t.Fatalf("Now = %d, want horizon %d", c.Now(), horizon)
	}
	for i, n := range c.Nodes {
		if n.Engine.Now() != horizon {
			t.Fatalf("node %d clock %d lags horizon %d", i, n.Engine.Now(), horizon)
		}
	}
}

// benchCluster builds a rack where every node perpetually self-reschedules
// a 1 µs tick — the degenerate dense workload that makes the next-event
// scan the hot path.
func benchCluster(nodes int) *Cluster {
	c := MustNewCluster(testClusterConfig(nodes, 1))
	for i := range c.Nodes {
		eng := c.Nodes[i].Engine
		var tick func()
		tick = func() { eng.ScheduleNamed(eng.Now().Add(sim.FromMicros(1)), "tick", tick) }
		eng.ScheduleNamed(sim.Time(0).Add(sim.FromMicros(1)), "tick", tick)
	}
	return c
}

func BenchmarkClusterStep16(b *testing.B) {
	c := benchCluster(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Step() {
			b.Fatal("drained")
		}
	}
}
