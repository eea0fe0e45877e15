package machine

import (
	"testing"

	"khsim/internal/gic"
	"khsim/internal/metrics"
	"khsim/internal/sim"
	"khsim/internal/timer"
)

func newNode(t *testing.T) *Node {
	t.Helper()
	n, err := New(PineA64Config(1))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Cores: 0, Freq: 1e9, DRAMMB: 64},
		{Cores: 257, Freq: 1e9, DRAMMB: 64},
		{Cores: 1, Freq: 0, DRAMMB: 64},
		{Cores: 1, Freq: 1e9, DRAMMB: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestNodeLayout(t *testing.T) {
	n := newNode(t)
	if len(n.Cores) != 4 {
		t.Fatalf("cores = %d", len(n.Cores))
	}
	if r, ok := n.Mem.FindName("dram"); !ok || r.Size != 2<<30 {
		t.Fatalf("dram region %v ok=%v", r, ok)
	}
	if n.Cores[2].ID() != 2 || n.Cores[2].Node() != n {
		t.Fatal("core identity wrong")
	}
}

// TestTLBInvalidationsRewindOnRestore: a core's TLB invalidation count
// is core state. Core.Restore rewinds it, and SnapshotMetrics publishes
// it as tlb.invalidations{core=N}, the only tlb series: no TLB is
// modelled, so there are no hit, miss or fill gauges.
func TestTLBInvalidationsRewindOnRestore(t *testing.T) {
	n := newNode(t)
	c := n.Cores[1]
	invalidations := func() float64 {
		v, _ := n.SnapshotMetrics().Gauge(metrics.K("tlb", "invalidations").WithCore(1))
		return v
	}
	c.InvalidateTLB()
	c.InvalidateTLB()
	snap := c.Snapshot()
	c.InvalidateTLB()
	if got := invalidations(); got != 3 {
		t.Fatalf("invalidations = %v, want 3", got)
	}
	c.Restore(snap)
	m := n.SnapshotMetrics()
	for core, want := range []float64{0, 2, 0, 0} {
		if got, ok := m.Gauge(metrics.K("tlb", "invalidations").WithCore(core)); !ok || got != want {
			t.Errorf("tlb.invalidations{core=%d} = %v (present %v), want %v", core, got, ok, want)
		}
		for _, name := range []string{"hits", "misses", "fills"} {
			if got, ok := m.Gauge(metrics.K("tlb", name).WithCore(core)); ok {
				t.Errorf("tlb.%s{core=%d} = %v is published, want no such gauge", name, core, got)
			}
		}
	}
}

func TestExecRunsToCompletion(t *testing.T) {
	n := newNode(t)
	c := n.Cores[0]
	done := sim.Time(-1)
	c.Exec("work", sim.FromMicros(100), func() { done = n.Now() })
	n.Engine.RunAll()
	if done != sim.Time(sim.FromMicros(100)) {
		t.Fatalf("completed at %v", done)
	}
	if c.BusyTime() != sim.FromMicros(100) {
		t.Fatalf("busy = %v", c.BusyTime())
	}
	if !c.Idle() {
		t.Fatal("core not idle after completion")
	}
}

func TestRunOverLiveActivityPanics(t *testing.T) {
	n := newNode(t)
	c := n.Cores[0]
	c.Exec("a", 100, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.Exec("b", 100, nil)
}

// installTickHandler wires a minimal kernel: acknowledge the IRQ, spend
// handlerCost in the handler, EOI, count.
func installTickHandler(n *Node, core int, handlerCost sim.Duration, onTick func()) {
	n.GIC.Enable(gic.IRQPhysTimer)
	n.Cores[core].SetDispatcher(func(c *Core) {
		irq := n.GIC.Acknowledge(c.ID())
		if irq == gic.SpuriousIRQ {
			return
		}
		c.Exec("irq", handlerCost, func() {
			n.GIC.EOI(c.ID(), irq)
			if onTick != nil {
				onTick()
			}
		})
	})
}

func TestPreemptionAccountsExactly(t *testing.T) {
	n := newNode(t)
	c := n.Cores[0]
	handlerCost := sim.FromMicros(10)
	installTickHandler(n, 0, handlerCost, nil)

	var preemptAt, resumeAt, doneAt sim.Time
	var stolenGot sim.Duration
	work := &Activity{
		Label:      "bench",
		Remaining:  sim.FromMicros(100),
		OnComplete: func() { doneAt = n.Now() },
		OnPreempt:  func(at sim.Time) { preemptAt = at },
		OnResume:   func(at sim.Time, stolen sim.Duration) { resumeAt = at; stolenGot = stolen },
	}
	c.Run(work)
	n.Timers.Core(0).Arm(timer.Phys, sim.Time(sim.FromMicros(40)))
	n.Engine.RunAll()

	if preemptAt != sim.Time(sim.FromMicros(40)) {
		t.Fatalf("preempted at %v", preemptAt)
	}
	if resumeAt != sim.Time(sim.FromMicros(50)) {
		t.Fatalf("resumed at %v", resumeAt)
	}
	if stolenGot != handlerCost {
		t.Fatalf("stolen = %v, want %v", stolenGot, handlerCost)
	}
	// Work did 40us, lost 10us, finished the remaining 60us: ends at 110us.
	if doneAt != sim.Time(sim.FromMicros(110)) {
		t.Fatalf("done at %v, want 110us", doneAt)
	}
	if c.Preemptions() != 1 {
		t.Fatalf("preemptions = %d", c.Preemptions())
	}
	// Busy time: 100us work + 10us handler.
	if c.BusyTime() != sim.FromMicros(110) {
		t.Fatalf("busy = %v", c.BusyTime())
	}
}

func TestUninterruptibleDefersDelivery(t *testing.T) {
	n := newNode(t)
	c := n.Cores[0]
	var tickAt sim.Time
	installTickHandler(n, 0, sim.FromMicros(1), func() { tickAt = n.Now() })

	c.ExecUninterruptible("critical", sim.FromMicros(100), nil)
	n.Timers.Core(0).Arm(timer.Phys, sim.Time(sim.FromMicros(30)))
	n.Engine.RunAll()
	// The IRQ fired at 30us but must only be handled after the critical
	// section ends at 100us (handler cost 1us → tick completes at 101us).
	if tickAt != sim.Time(sim.FromMicros(101)) {
		t.Fatalf("tick handled at %v, want 101us", tickAt)
	}
	if c.Preemptions() != 0 {
		t.Fatal("uninterruptible work was preempted")
	}
}

func TestExplicitMaskHoldsIRQ(t *testing.T) {
	n := newNode(t)
	c := n.Cores[0]
	handled := false
	installTickHandler(n, 0, sim.FromMicros(1), func() { handled = true })
	c.SetIRQMasked(true)
	if !c.IRQMasked() {
		t.Fatal("mask not set")
	}
	n.Timers.Core(0).Arm(timer.Phys, 10)
	n.Engine.RunAll()
	if handled {
		t.Fatal("masked IRQ was handled")
	}
	c.SetIRQMasked(false) // unmask delivers immediately
	n.Engine.RunAll()
	if !handled {
		t.Fatal("held IRQ not delivered on unmask")
	}
}

func TestNestedInterruptHandling(t *testing.T) {
	n := newNode(t)
	c := n.Cores[0]
	n.GIC.Enable(gic.IRQPhysTimer)
	n.GIC.Enable(gic.IRQVirtualTimer)
	order := []int{}
	c.SetDispatcher(func(c *Core) {
		irq := n.GIC.Acknowledge(c.ID())
		if irq == gic.SpuriousIRQ {
			return
		}
		c.Exec("irq", sim.FromMicros(20), func() {
			n.GIC.EOI(c.ID(), irq)
			order = append(order, irq)
		})
	})
	var doneAt sim.Time
	c.Exec("work", sim.FromMicros(100), func() { doneAt = n.Now() })
	// First IRQ at 10us; second fires at 15us while the first handler is
	// running (handlers auto-mask, so it is held until the first EOIs).
	n.Timers.Core(0).Arm(timer.Phys, sim.Time(sim.FromMicros(10)))
	n.Timers.Core(0).Arm(timer.Virt, sim.Time(sim.FromMicros(15)))
	n.Engine.RunAll()
	if len(order) != 2 {
		t.Fatalf("handled %d IRQs", len(order))
	}
	// Work: 10us done, then 20us handler, then 20us handler, then 90us
	// remaining → 140us total.
	if doneAt != sim.Time(sim.FromMicros(140)) {
		t.Fatalf("done at %v, want 140us", doneAt)
	}
}

func TestStealSuspendedAndResumeElsewhere(t *testing.T) {
	n := newNode(t)
	c0, c1 := n.Cores[0], n.Cores[1]
	n.GIC.Enable(gic.IRQPhysTimer)
	var migrated *Activity
	c0.SetDispatcher(func(c *Core) {
		irq := n.GIC.Acknowledge(c.ID())
		if irq == gic.SpuriousIRQ {
			return
		}
		c.Exec("sched", sim.FromMicros(5), func() {
			n.GIC.EOI(c.ID(), irq)
			migrated = c.StealSuspended()
		})
	})
	var doneOn = -1
	var resumed bool
	work := &Activity{
		Label:     "task",
		Remaining: sim.FromMicros(100),
		OnResume:  func(at sim.Time, stolen sim.Duration) { resumed = true },
	}
	work.OnComplete = func() {
		if c1.Current() == nil && c0.Current() == nil {
			// completion fires on whichever core ran it last; identify by
			// busy time below instead.
		}
		doneOn = 1
	}
	c0.Run(work)
	n.Timers.Core(0).Arm(timer.Phys, sim.Time(sim.FromMicros(30)))
	// After the steal, hand the task to core 1.
	n.Engine.ScheduleNamed(sim.Time(sim.FromMicros(50)), "test.resume", func() {
		if migrated == nil {
			t.Fatal("steal failed")
		}
		c1.ResumeStolen(migrated)
	})
	n.Engine.RunAll()
	if doneOn != 1 {
		t.Fatal("migrated task never completed")
	}
	if !resumed {
		t.Fatal("OnResume not fired for migrated task")
	}
	// 30us ran on core 0; remaining 70us on core 1 from t=50us → 120us.
	if c1.BusyTime() != sim.FromMicros(70) {
		t.Fatalf("core1 busy = %v", c1.BusyTime())
	}
	if n.Now() != sim.Time(sim.FromMicros(120)) {
		t.Fatalf("finished at %v", n.Now())
	}
}

func TestSetNextSwitchesAfterHandler(t *testing.T) {
	n := newNode(t)
	c := n.Cores[0]
	n.GIC.Enable(gic.IRQPhysTimer)
	var taskBDone sim.Time
	taskB := &Activity{Label: "B", Remaining: sim.FromMicros(10),
		OnComplete: func() { taskBDone = n.Now() }}
	c.SetDispatcher(func(c *Core) {
		irq := n.GIC.Acknowledge(c.ID())
		if irq == gic.SpuriousIRQ {
			return
		}
		c.Exec("sched", sim.FromMicros(2), func() {
			n.GIC.EOI(c.ID(), irq)
			c.StealSuspended() // park task A forever
			c.SetNext(taskB)
		})
	})
	c.Exec("A", sim.FromMicros(100), nil)
	n.Timers.Core(0).Arm(timer.Phys, sim.Time(sim.FromMicros(20)))
	n.Engine.RunAll()
	// switch at 20us + 2us handler + 10us B = 32us.
	if taskBDone != sim.Time(sim.FromMicros(32)) {
		t.Fatalf("B done at %v", taskBDone)
	}
}

func TestSetNextWithSuspendedWorkPanics(t *testing.T) {
	n := newNode(t)
	c := n.Cores[0]
	n.GIC.Enable(gic.IRQPhysTimer)
	panicked := false
	c.SetDispatcher(func(c *Core) {
		irq := n.GIC.Acknowledge(c.ID())
		if irq == gic.SpuriousIRQ {
			return
		}
		func() {
			defer func() { panicked = recover() != nil }()
			c.SetNext(&Activity{Label: "X", Remaining: 1})
		}()
		n.GIC.EOI(c.ID(), irq)
	})
	c.Exec("A", sim.FromMicros(100), nil)
	n.Timers.Core(0).Arm(timer.Phys, 10)
	n.Engine.RunAll()
	if !panicked {
		t.Fatal("SetNext with suspended work did not panic")
	}
}

func TestOnIdleFires(t *testing.T) {
	n := newNode(t)
	c := n.Cores[0]
	idleCalls := 0
	c.SetOnIdle(func(c *Core) { idleCalls++ })
	c.Exec("w", sim.FromMicros(5), nil)
	n.Engine.RunAll()
	if idleCalls != 1 {
		t.Fatalf("idle calls = %d", idleCalls)
	}
}

func TestOnIdleCanChainWork(t *testing.T) {
	n := newNode(t)
	c := n.Cores[0]
	runs := 0
	c.SetOnIdle(func(c *Core) {
		if runs < 3 {
			runs++
			c.Exec("chained", sim.FromMicros(1), nil)
		}
	})
	c.Exec("seed", sim.FromMicros(1), nil)
	n.Engine.RunAll()
	if runs != 3 {
		t.Fatalf("chained runs = %d", runs)
	}
	if n.Now() != sim.Time(sim.FromMicros(4)) {
		t.Fatalf("finished at %v", n.Now())
	}
}

func TestAssertWithoutDispatcherIsHeld(t *testing.T) {
	n := newNode(t)
	c := n.Cores[0]
	n.GIC.Enable(gic.IRQPhysTimer)
	n.Timers.Core(0).Arm(timer.Phys, 10)
	n.Engine.RunAll() // no dispatcher: assert held, no crash
	handled := false
	installTickHandler(n, 0, 1, func() { handled = true })
	// Unmasking (already unmasked) does nothing; but a fresh assert works.
	c.SetIRQMasked(true)
	c.SetIRQMasked(false)
	n.Engine.RunAll()
	if !handled {
		t.Fatal("held assert not deliverable after dispatcher install")
	}
}

func TestCostsAndDRAM(t *testing.T) {
	costs := DefaultCosts(DefaultFreq)
	if costs.WorldSwitch <= costs.ExceptionEntry {
		t.Fatal("world switch should dominate exception entry")
	}
	d := DefaultDRAM()
	tm := d.StreamTime(1.3e9)
	if tm < sim.FromSeconds(0.99) || tm > sim.FromSeconds(1.01) {
		t.Fatalf("StreamTime = %v", tm)
	}
	n := newNode(t)
	if n.Cycles(1152) != sim.Cycles(1152, DefaultFreq) {
		t.Fatal("Cycles mismatch")
	}
}

// TestLazyCoreSettlesOnEveryTouch: SetLazy hands an idle core to its
// owner's settle hook, which runs once, at the first touch: a read of the
// core's execution state, an interrupt, work started on it, a node
// snapshot or a metrics read. A lazy core skips its idle callback, and
// Restore drops a hook that never ran.
func TestLazyCoreSettlesOnEveryTouch(t *testing.T) {
	n := newNode(t)
	c := n.Cores[2]
	c.SetDispatcher(func(c *Core) {})
	idles := 0
	c.SetOnIdle(func(*Core) { idles++ })
	touches := []struct {
		name  string
		touch func()
	}{
		{"Idle", func() { c.Idle() }},
		{"Depth", func() { c.Depth() }},
		{"Current", func() { c.Current() }},
		{"BusyTime", func() { c.BusyTime() }},
		{"AssertIRQ", func() { c.AssertIRQ() }},
		{"Exec", func() { c.Exec("work", sim.Microsecond, nil) }},
		{"CallHandler", func() { c.CallHandler(func(*Core) {}) }},
		{"Node.Snapshot", func() { n.Snapshot() }},
		{"Node.SnapshotMetrics", func() { n.SnapshotMetrics() }},
		{"Node.TouchCores", n.TouchCores},
	}
	for _, tc := range touches {
		settles := 0
		c.SetLazy(func(*Core) { settles++ })
		tc.touch()
		c.Touch()
		if settles != 1 {
			t.Errorf("%s: settled %d times, want once", tc.name, settles)
		}
		n.Engine.RunAll()
	}
	before := idles
	c.Exec("x", sim.Microsecond, func() { c.SetLazy(func(*Core) {}) })
	n.Engine.RunAll()
	if idles != before {
		t.Error("a core that went lazy in its completion called its idle callback")
	}
	snap := n.Snapshot()
	c.SetLazy(func(*Core) { t.Fatal("a restored core settled") })
	n.Restore(snap)
	c.Touch()
}

// TestExecBoundSinceRunsFromItsStart: a slice put back from the past
// completes at start+d, and its busy time counts from start.
func TestExecBoundSinceRunsFromItsStart(t *testing.T) {
	n := newNode(t)
	c := n.Cores[0]
	n.Engine.Run(sim.Time(10 * sim.Microsecond))
	var doneAt sim.Time
	c.ExecBoundSince(sim.Time(8*sim.Microsecond), "past", 5*sim.Microsecond, true, func(c *Core, arg int) {
		doneAt = c.Node().Now()
		if arg != 7 {
			t.Errorf("arg = %d, want 7", arg)
		}
	}, 7)
	if a := c.Current(); a == nil || a.Label != "past" || !a.Uninterruptible {
		t.Fatalf("current = %+v, want the uninterruptible past slice", a)
	}
	n.Engine.RunAll()
	if doneAt != sim.Time(13*sim.Microsecond) || c.BusyTime() != 5*sim.Microsecond {
		t.Fatalf("done at %v with busy %v, want 13us and 5us", doneAt, c.BusyTime())
	}
}
