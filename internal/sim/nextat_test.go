package sim

import "testing"

func TestEngineNextAt(t *testing.T) {
	e := NewEngine(1)
	if _, ok := e.NextAt(); ok {
		t.Fatal("empty engine reported a next event")
	}
	at := Time(0).Add(FromMicros(5))
	r := e.NewRegister("a", func() {})
	r.Arm(at)
	if got, ok := e.NextAt(); !ok || got != at {
		t.Fatalf("NextAt = %v,%v want %v,true", got, ok, at)
	}
	// A disarmed register leaves no trace, and nothing fires.
	r.Disarm()
	later := at.Add(FromMicros(1))
	e.ScheduleNamed(later, "b", func() {})
	if got, ok := e.NextAt(); !ok || got != later {
		t.Fatalf("NextAt after disarm = %v,%v want %v,true", got, ok, later)
	}
	// A register armed earlier than the heap's head is the next event.
	r.Arm(at)
	if got, ok := e.NextAt(); !ok || got != at {
		t.Fatalf("NextAt after re-arm = %v,%v want %v,true", got, ok, at)
	}
	if e.Fired() != 0 {
		t.Fatal("NextAt fired events")
	}
	// After stepping the queue dry, NextAt reports nothing again.
	for e.Step() {
	}
	if _, ok := e.NextAt(); ok {
		t.Fatal("drained engine reported a next event")
	}
	// Same-instant events are visible too.
	e.ScheduleNamed(e.Now(), "now", func() {})
	if got, ok := e.NextAt(); !ok || got != e.Now() {
		t.Fatalf("NextAt same-instant = %v,%v want %v,true", got, ok, e.Now())
	}
}
