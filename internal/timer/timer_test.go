package timer

import (
	"testing"

	"khsim/internal/gic"
	"khsim/internal/sim"
)

type env struct {
	eng  *sim.Engine
	dist *gic.Distributor
	bank *Bank
}

func newEnv(t *testing.T) *env {
	t.Helper()
	eng := sim.NewEngine(1)
	dist := gic.New(4, 32)
	for _, irq := range []int{gic.IRQPhysTimer, gic.IRQVirtualTimer, gic.IRQHypTimer} {
		if err := dist.Enable(irq); err != nil {
			t.Fatal(err)
		}
	}
	return &env{eng: eng, dist: dist, bank: NewBank(eng, dist, 4)}
}

func TestChannelPPIs(t *testing.T) {
	if Phys.PPI() != 30 || Virt.PPI() != 27 || Hyp.PPI() != 26 {
		t.Fatal("PPI assignments wrong")
	}
	for _, c := range []Channel{Phys, Virt, Hyp} {
		if c.String() == "" {
			t.Fatal("empty channel string")
		}
	}
}

func TestArmFiresAtDeadline(t *testing.T) {
	e := newEnv(t)
	ct := e.bank.Core(1)
	ct.Arm(Phys, sim.Time(sim.Second))
	e.eng.Run(sim.Time(sim.Second) - 1)
	if e.dist.PendingCount(1) != 0 {
		t.Fatal("fired early")
	}
	e.eng.Run(sim.Time(sim.Second))
	if got := e.dist.Acknowledge(1); got != gic.IRQPhysTimer {
		t.Fatalf("ack = %d", got)
	}
	if ct.Fired(Phys) != 1 {
		t.Fatalf("fired count = %d", ct.Fired(Phys))
	}
	if ct.Armed(Phys) {
		t.Fatal("still armed after firing")
	}
}

func TestChannelsIndependent(t *testing.T) {
	e := newEnv(t)
	ct := e.bank.Core(0)
	ct.Arm(Phys, 100)
	ct.Arm(Virt, 200)
	e.eng.Run(150)
	if e.dist.Acknowledge(0) != gic.IRQPhysTimer {
		t.Fatal("phys did not fire first")
	}
	if ct.Armed(Phys) || !ct.Armed(Virt) {
		t.Fatal("channel state wrong")
	}
	e.eng.Run(250)
	e.dist.EOI(0, gic.IRQPhysTimer)
	if e.dist.Acknowledge(0) != gic.IRQVirtualTimer {
		t.Fatal("virt did not fire")
	}
}

func TestRearmReplacesDeadline(t *testing.T) {
	e := newEnv(t)
	ct := e.bank.Core(0)
	ct.Arm(Phys, 100)
	ct.Arm(Phys, 500) // replaces
	if ct.Deadline(Phys) != 500 {
		t.Fatalf("deadline = %v", ct.Deadline(Phys))
	}
	e.eng.Run(300)
	if ct.Fired(Phys) != 0 {
		t.Fatal("replaced deadline fired")
	}
	e.eng.Run(600)
	if ct.Fired(Phys) != 1 {
		t.Fatal("new deadline missed")
	}
}

func TestCancelChannel(t *testing.T) {
	e := newEnv(t)
	ct := e.bank.Core(0)
	ct.Arm(Virt, 100)
	ct.CancelChannel(Virt)
	if ct.Armed(Virt) {
		t.Fatal("armed after cancel")
	}
	e.eng.Run(200)
	if ct.Fired(Virt) != 0 {
		t.Fatal("cancelled timer fired")
	}
	if ct.Deadline(Virt) != 0 {
		t.Fatal("deadline of disarmed channel nonzero")
	}
}

func TestPastDeadlineFiresNow(t *testing.T) {
	e := newEnv(t)
	e.eng.ScheduleNamed(1000, "test.arm", func() {
		e.bank.Core(2).Arm(Phys, 10) // in the past
	})
	e.eng.Run(1000)
	e.eng.Run(1001)
	if e.bank.Core(2).Fired(Phys) != 1 {
		t.Fatal("past deadline did not fire immediately")
	}
}

func TestPerCoreIsolation(t *testing.T) {
	e := newEnv(t)
	e.bank.Core(0).Arm(Phys, 50)
	e.eng.Run(60)
	if e.dist.PendingCount(1) != 0 || e.dist.PendingCount(2) != 0 {
		t.Fatal("timer fired on wrong core")
	}
	if e.dist.PendingCount(0) != 1 {
		t.Fatal("timer missing on own core")
	}
}

func TestPeriodicTickPattern(t *testing.T) {
	e := newEnv(t)
	ct := e.bank.Core(0)
	period := sim.Hertz(10).Period()
	var rearm func()
	rearm = func() {}
	count := 0
	// Drain + rearm in a handler-like loop driven from the distributor.
	tick := func() {
		if e.dist.Acknowledge(0) == gic.IRQPhysTimer {
			count++
			e.dist.EOI(0, gic.IRQPhysTimer)
			ct.ArmAfter(Phys, period)
		}
		rearm()
	}
	// Poll for fires each period boundary (simplified consumer).
	ct.ArmAfter(Phys, period)
	for i := 1; i <= 10; i++ {
		e.eng.Run(sim.Time(sim.Duration(i) * period))
		tick()
	}
	if count != 10 {
		t.Fatalf("ticks = %d, want 10", count)
	}
}

// TestUnarmedChannel pins a channel that was never armed: it has no
// register yet, reports no deadline, and ignores a cancel. Its first Arm
// builds the register and fires like any other.
func TestUnarmedChannel(t *testing.T) {
	e := newEnv(t)
	ct := e.bank.Core(3)
	ct.CancelChannel(Hyp)
	if ct.Armed(Hyp) || ct.Deadline(Hyp) != 0 {
		t.Fatalf("never-armed channel reports Armed=%v Deadline=%v", ct.Armed(Hyp), ct.Deadline(Hyp))
	}
	ct.Arm(Hyp, 40)
	if !ct.Armed(Hyp) || ct.Deadline(Hyp) != 40 {
		t.Fatalf("armed channel reports Armed=%v Deadline=%v", ct.Armed(Hyp), ct.Deadline(Hyp))
	}
	e.eng.Run(40)
	if got := e.dist.Acknowledge(3); got != gic.IRQHypTimer || ct.Fired(Hyp) != 1 {
		t.Fatalf("ack = %d, fired = %d", got, ct.Fired(Hyp))
	}
}

// TestNewBankAllocs pins what a bank costs to build: the bank, its core
// slice and one CoreTimers per core. A channel's register, callback and
// name are built on its first Arm, so the channels no one arms cost
// nothing.
func TestNewBankAllocs(t *testing.T) {
	const cores = 4
	eng, dist := sim.NewEngine(1), gic.New(cores, 32)
	allocs := testing.AllocsPerRun(50, func() { NewBank(eng, dist, cores) })
	if allocs > cores+2 {
		t.Errorf("NewBank(%d cores) allocates %.0f objects, budget %d", cores, allocs, cores+2)
	}
}
