package sim

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleFiresInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.ScheduleNamed(30, "c", func() { got = append(got, 3) })
	e.ScheduleNamed(10, "a", func() { got = append(got, 1) })
	e.ScheduleNamed(20, "b", func() { got = append(got, 2) })
	e.RunAll()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("clock ended at %v, want 30", e.Now())
	}
}

func TestSameInstantEventsFireFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.ScheduleNamed(5, "tie", func() { got = append(got, i) })
	}
	e.RunAll()
	for i := range got {
		if got[i] != i {
			t.Fatalf("ties not FIFO: %v", got)
		}
	}
}

// Disarming a register cancels its pending firing.
func TestCancelPreventsFiring(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	r := e.NewRegister("r", func() { fired++ })
	r.Arm(10)
	r.Disarm()
	e.RunAll()
	if fired != 0 {
		t.Fatal("disarmed register fired")
	}
	if r.Armed() || r.When() != 0 {
		t.Fatalf("disarmed register reports Armed=%v When=%v", r.Armed(), r.When())
	}
	// A second Disarm is a no-op, and the register arms again afterwards.
	r.Disarm()
	r.Arm(e.Now().Add(1))
	e.RunAll()
	if fired != 1 {
		t.Fatalf("re-armed register fired %d times, want 1", fired)
	}
}

// A register is disarmed when it fires, so Disarm after the firing is a
// no-op that touches no other register, and the register can be armed
// again.
func TestCancelAfterPopIsNoOp(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	r := e.NewRegister("r", func() { fired++ })
	other := e.NewRegister("other", func() { fired += 10 })
	r.Arm(10)
	e.RunAll()
	if fired != 1 || r.Armed() {
		t.Fatalf("fired=%d Armed=%v after the firing, want 1 and false", fired, r.Armed())
	}
	other.Arm(e.Now().Add(5))
	r.Disarm()
	if !other.Armed() || e.Pending() != 1 {
		t.Fatalf("Disarm of a fired register disturbed another: Armed=%v Pending=%d", other.Armed(), e.Pending())
	}
	r.Arm(e.Now().Add(1))
	e.RunAll()
	if fired != 12 {
		t.Fatalf("fired=%d, want 12", fired)
	}
}

// A new register is disarmed and inert.
func TestNewRegisterIsDisarmed(t *testing.T) {
	e := NewEngine(1)
	r := e.NewRegister("r", func() { t.Fatal("unarmed register fired") })
	r.Disarm()
	if r.Armed() || r.When() != 0 || e.Pending() != 0 {
		t.Fatalf("new register: Armed=%v When=%v Pending=%d", r.Armed(), r.When(), e.Pending())
	}
	if e.RunAll() != 0 {
		t.Fatal("engine fired an event with nothing armed")
	}
}

// A register's callback sees the register disarmed: Disarm there is a
// no-op, and the callback may re-arm it.
func TestCancelSelfInsideCallback(t *testing.T) {
	e := NewEngine(1)
	var r *Register
	var at []int64
	r = e.NewRegister("r", func() {
		at = append(at, int64(e.Now()))
		if r.Armed() {
			t.Error("register armed inside its own callback")
		}
		r.Disarm()
		if len(at) < 3 {
			r.Arm(e.Now().Add(5))
		}
	})
	r.Arm(10)
	e.RunAll()
	if fmt.Sprint(at) != "[10 15 20]" {
		t.Fatalf("register fired at %v, want [10 15 20]", at)
	}
}

// Pending must count heap and register events, and track disarming and
// firing.
func TestPendingCount(t *testing.T) {
	e := NewEngine(1)
	nop := func() {}
	e.ScheduleNamed(0, "now", nop)
	e.ScheduleNamed(5, "later", nop)
	a := e.NewRegister("a", nop)
	b := e.NewRegister("b", nop)
	a.Arm(5)
	b.Arm(0)
	b.Arm(7) // re-arming keeps one pending firing
	if e.Pending() != 4 {
		t.Fatalf("Pending = %d, want 4", e.Pending())
	}
	a.Disarm()
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d after disarm, want 3", e.Pending())
	}
	if a.Armed() || !b.Armed() || b.When() != 7 {
		t.Fatalf("a.Armed=%v b.Armed=%v b.When=%v", a.Armed(), b.Armed(), b.When())
	}
	e.RunAll()
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", e.Pending())
	}
}

func TestCancelOneOfManyAtSameInstant(t *testing.T) {
	e := NewEngine(1)
	var got []int
	var regs []*Register
	for i := 0; i < 5; i++ {
		regs = append(regs, e.NewRegister("r", func() { got = append(got, i) }))
		regs[i].Arm(7)
	}
	regs[2].Disarm()
	e.RunAll()
	if fmt.Sprint(got) != "[0 1 3 4]" {
		t.Fatalf("got %v, want [0 1 3 4]", got)
	}
}

func TestRegisterArmInPastPanics(t *testing.T) {
	e := NewEngine(1)
	r := e.NewRegister("r", func() {})
	e.Run(10)
	defer func() {
		if recover() == nil {
			t.Fatal("arming a register in the past did not panic")
		}
	}()
	r.Arm(5)
}

func TestRunUntilStopsAtBoundaryAndAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		e.ScheduleNamed(at, "ev", func() { fired = append(fired, at) })
	}
	n := e.Run(12)
	if n != 2 || len(fired) != 2 {
		t.Fatalf("fired %d events by t=12, want 2", len(fired))
	}
	if e.Now() != 12 {
		t.Fatalf("clock %v, want 12", e.Now())
	}
	e.Run(100)
	if len(fired) != 4 {
		t.Fatalf("fired %d events total, want 4", len(fired))
	}
	if e.Now() != 100 {
		t.Fatalf("clock %v, want 100 after idle advance", e.Now())
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.ScheduleNamed(100, "outer", func() {
		e.AfterNamed(50, "inner", func() { at = e.Now() })
	})
	e.RunAll()
	if at != 150 {
		t.Fatalf("After fired at %v, want 150", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.ScheduleNamed(10, "now", func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.ScheduleNamed(5, "past", func() {})
	})
	e.RunAll()
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := Time(1); i <= 10; i++ {
		e.ScheduleNamed(i, "ev", func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.RunAll()
	if count != 3 {
		t.Fatalf("fired %d events after Stop, want 3", count)
	}
	if !e.Stopped() {
		t.Fatal("engine not stopped")
	}
}

func TestEventsScheduledDuringRunFire(t *testing.T) {
	e := NewEngine(1)
	depth := 0
	var schedule func()
	schedule = func() {
		depth++
		if depth < 100 {
			e.AfterNamed(1, "chain", schedule)
		}
	}
	e.AfterNamed(1, "chain", schedule)
	e.RunAll()
	if depth != 100 {
		t.Fatalf("chained depth %d, want 100", depth)
	}
	if e.Now() != 100 {
		t.Fatalf("clock %v, want 100", e.Now())
	}
}

// Property: for any set of (time, payload) pairs, firing order is the
// stable sort by time.
func TestQuickFiringOrderIsStableSortByTime(t *testing.T) {
	f := func(times []uint16) bool {
		e := NewEngine(42)
		type pair struct {
			at  Time
			seq int
		}
		var want []pair
		var got []pair
		for i, tt := range times {
			at := Time(tt)
			want = append(want, pair{at, i})
			i := i
			e.ScheduleNamed(at, "ev", func() { got = append(got, pair{at, i}) })
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		e.RunAll()
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: disarming an arbitrary subset of armed registers removes
// exactly that subset.
func TestQuickCancelIsExact(t *testing.T) {
	f := func(times []uint8, disarmMask []bool) bool {
		e := NewEngine(7)
		fired := map[int]bool{}
		var regs []*Register
		for i, tt := range times {
			r := e.NewRegister("r", func() { fired[i] = true })
			r.Arm(Time(tt))
			regs = append(regs, r)
		}
		disarmed := map[int]bool{}
		for i, r := range regs {
			if i < len(disarmMask) && disarmMask[i] {
				r.Disarm()
				disarmed[i] = true
			}
		}
		e.RunAll()
		for i := range regs {
			if disarmed[i] == fired[i] {
				return false // disarmed must not fire; armed must fire
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
