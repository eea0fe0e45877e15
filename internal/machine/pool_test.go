package machine

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"khsim/internal/sim"
)

// TestPooledActivitySnapshotRestore pins the snapshot contract of pooled
// Exec activities. The snapshot is taken with an Exec activity suspended
// under a handler; the run then completes it, and its storage is
// re-minted for an ExecUninterruptible slice with a different label and
// callback. A restore must bring the suspended activity back whole —
// label, callback and mask, not just its progress — and the replay must
// match the first run event for event.
func TestPooledActivitySnapshotRestore(t *testing.T) {
	n := newNode(t)
	c := n.Cores[0]
	us := sim.FromMicros

	var log []string
	c.Exec("work", us(100), func() { log = append(log, fmt.Sprintf("work@%v", n.Now())) })
	n.Engine.ScheduleNamed(sim.Time(us(30)), "test.handler", func() {
		c.CallHandler(func(c *Core) {
			c.Exec("handler", us(20), func() { log = append(log, fmt.Sprintf("handler@%v", n.Now())) })
		})
	})
	var reused *Activity
	n.Engine.ScheduleNamed(sim.Time(us(150)), "test.crit", func() {
		c.ExecUninterruptible("crit", us(10), func() { log = append(log, fmt.Sprintf("crit@%v", n.Now())) })
		reused = c.cur
	})

	n.Engine.Run(sim.Time(us(40)))
	if len(c.stack) != 1 || c.stack[0].Label != "work" || c.cur == nil || c.cur.Label != "handler" {
		t.Fatalf("at the snapshot: stack %v, current %v; want work suspended under handler", c.StackLabels(), c.cur)
	}
	work := c.stack[0]
	snap := n.Snapshot()
	freeAtSnap := len(c.free)

	// run drives the node to quiescence, observing the running activity's
	// label and mask at every event boundary.
	run := func() (trace []string, busy sim.Duration) {
		log = nil
		for n.Engine.Pending() > 0 {
			if a := c.cur; a != nil {
				trace = append(trace, fmt.Sprintf("%v %s uninterruptible=%v", n.Now(), a.Label, a.Uninterruptible))
			}
			n.Engine.Step()
		}
		return append(trace, log...), c.BusyTime()
	}
	first, busy1 := run()
	if reused != work {
		t.Fatal("the ExecUninterruptible slice did not reuse the completed work activity's storage")
	}
	if !work.released {
		t.Fatal("completed Exec activity not back on the free list")
	}

	n.Restore(snap)
	if work.Label != "work" || work.Uninterruptible || work.OnComplete == nil || work.released {
		t.Fatalf("restored work activity = %+v, want the live, interruptible work slice", *work)
	}
	if len(c.free) != freeAtSnap {
		t.Fatalf("free list has %d entries after restore, %d at the snapshot", len(c.free), freeAtSnap)
	}
	second, busy2 := run()
	if fmt.Sprint(first) != fmt.Sprint(second) || busy1 != busy2 {
		t.Fatalf("replay after restore diverged:\nfirst  %q busy %v\nsecond %q busy %v", first, busy1, second, busy2)
	}

	for name, use := range map[string]func(){
		"Run":          func() { c.Run(work) },
		"ResumeStolen": func() { c.ResumeStolen(work) },
		"RestoreStack": func() { c.RestoreStack([]*Activity{work}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of a completed Exec activity did not panic", name)
				}
			}()
			use()
		}()
	}
}

// TestMintResetsEveryField guards the field-by-field reset in Core.mint:
// a pooled activity with every field dirtied must come back equal to a
// freshly built one, so a field added to Activity cannot leak from one
// Exec slice into the next.
func TestMintResetsEveryField(t *testing.T) {
	c := newNode(t).Cores[0]
	a := new(Activity)
	v := reflect.ValueOf(a).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
		switch f.Kind() {
		case reflect.String:
			f.SetString("stale")
		case reflect.Int, reflect.Int64:
			f.SetInt(7)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Func:
			f.Set(reflect.MakeFunc(f.Type(), func([]reflect.Value) []reflect.Value { return nil }))
		default:
			t.Fatalf("Activity field %s has kind %v; teach this test to dirty it", v.Type().Field(i).Name, f.Kind())
		}
	}
	c.free = append(c.free, a)
	got := c.mint("fresh", 5, nil, false)
	if got != a {
		t.Fatal("mint did not reuse the pooled activity")
	}
	if want := (Activity{Label: "fresh", Remaining: 5, pooled: true}); !reflect.DeepEqual(*got, want) {
		t.Fatalf("minted activity %+v, want %+v", *got, want)
	}
}
