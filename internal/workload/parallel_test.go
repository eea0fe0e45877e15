package workload

import (
	"math"
	"testing"

	"khsim/internal/machine"
	"khsim/internal/sim"
)

// multiExec runs shard i on core i of a quiet node.
type multiExec struct {
	node *machine.Node
	core int
	done bool
}

func (e *multiExec) Exec(label string, d sim.Duration, fn func()) {
	e.node.Cores[e.core].Exec(label, d, fn)
}
func (e *multiExec) Run(a *machine.Activity) { e.node.Cores[e.core].Run(a) }
func (e *multiExec) Now() sim.Time           { return e.node.Now() }
func (e *multiExec) Done()                   { e.done = true }

func TestParallelSplitsOpsExactly(t *testing.T) {
	spec := Spec{
		Name: "par", Units: "op/s", UnitScale: 1,
		NativeRate: 1e6, TotalOps: 4e6, PhaseOps: 1e5,
	}
	node := machine.MustNew(machine.PineA64Config(4))
	par, err := NewParallel(spec, Env{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	execs := make([]*multiExec, 4)
	for i := 0; i < 4; i++ {
		execs[i] = &multiExec{node: node, core: i}
		par.Shard(i).Main(execs[i])
	}
	node.Engine.RunAll()
	if !par.Finished() {
		t.Fatal("not finished")
	}
	for i, e := range execs {
		if !e.done {
			t.Fatalf("shard %d executor not done", i)
		}
		sr := par.ShardResult(i)
		if !sr.Finished || math.Abs(sr.Elapsed.Seconds()-1) > 1e-9 {
			t.Fatalf("shard %d elapsed %v, want 1s", i, sr.Elapsed)
		}
	}
	// 4e6 ops in 1s wall: aggregate rate 4e6, speedup 4.
	if math.Abs(par.Result.Rate-4e6) > 1 {
		t.Fatalf("aggregate rate = %v", par.Result.Rate)
	}
	if math.Abs(par.Speedup()-4) > 1e-6 {
		t.Fatalf("speedup = %v", par.Speedup())
	}
}

func TestParallelStaggeredStarts(t *testing.T) {
	spec := Spec{
		Name: "par", Units: "op/s", UnitScale: 1,
		NativeRate: 1e6, TotalOps: 2e6, PhaseOps: 1e6,
	}
	node := machine.MustNew(machine.PineA64Config(4))
	par, err := NewParallel(spec, Env{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Shard 0 starts at t=0, shard 1 at t=0.5s: elapsed spans first start
	// to last finish = 1.5s → rate 2e6/1.5.
	par.Shard(0).Main(&multiExec{node: node, core: 0})
	node.Engine.ScheduleNamed(sim.Time(sim.FromSeconds(0.5)), "test.shard1", func() {
		par.Shard(1).Main(&multiExec{node: node, core: 1})
	})
	node.Engine.RunAll()
	if !par.Finished() {
		t.Fatal("not finished")
	}
	want := 2e6 / 1.5
	if math.Abs(par.Result.Rate-want) > 1 {
		t.Fatalf("rate = %v, want %v", par.Result.Rate, want)
	}
}

func TestParallelSingleShardMatchesRun(t *testing.T) {
	spec := NASCG()
	spec.Jitter = 0
	node := machine.MustNew(machine.PineA64Config(4))
	par, _ := NewParallel(spec, Env{TwoStage: true}, 1)
	par.Shard(0).Main(&multiExec{node: node, core: 0})
	node.Engine.RunAll()
	single := runQuiet(t, spec, Env{TwoStage: true})
	if math.Abs(par.Result.Rate-single.Rate) > single.Rate*1e-9 {
		t.Fatalf("1-shard parallel %v != single %v", par.Result.Rate, single.Rate)
	}
}
