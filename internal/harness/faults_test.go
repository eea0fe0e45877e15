package harness

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"khsim/internal/noise"
	"khsim/internal/sim"
)

// containTestRun spans three periods of the Kitten primary's 10 Hz
// tick, so the quiet profile has detours to compare.
const containTestRun = 300 * sim.Millisecond

// TestFaultContainment is the PR's acceptance experiment: a secondary VM
// crashing and restarting under fault injection must not change the
// primary's selfish-detour noise profile at all.
func TestFaultContainment(t *testing.T) {
	r, err := RunFaultContainment(42, containTestRun)
	if err != nil {
		t.Fatal(err)
	}
	if r.Hyp.Restarts == 0 {
		t.Fatal("the watchdog never restarted the victim")
	}
	if r.Injected.Injected == 0 || len(r.Trace) == 0 {
		t.Fatal("injector fired nothing")
	}
	// Check compares the detour profiles detour by detour, not just in
	// count, and fails on an empty baseline or a victim never crashed.
	if err := r.Check(); err != nil {
		t.Fatalf("%v\n%s", err, r)
	}
	s := r.String()
	for _, want := range []string{"contained", "restarts"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
	// Check must be able to fail: on a faulted detour that differs from
	// its quiet twin, and on empty profiles, which prove nothing.
	for name, mutate := range map[string]func(q, f *noise.SelfishResult){
		"shifted detour": func(_, f *noise.SelfishResult) { f.Detours[0].Duration++ },
		"empty profiles": func(q, f *noise.SelfishResult) { q.Detours, f.Detours = nil, nil },
	} {
		q, f := *r.Baseline, *r.Faulted
		q.Detours, f.Detours = slices.Clone(q.Detours), slices.Clone(f.Detours)
		mutate(&q, &f)
		bad := *r
		bad.Baseline, bad.Faulted = &q, &f
		if bad.Check() == nil {
			t.Errorf("%s: Check passed", name)
		}
	}
}

// TestFaultContainmentReproducible: the whole experiment — injection
// trace, hypervisor stats, detour profile — is a pure function of the
// seed.
func TestFaultContainmentReproducible(t *testing.T) {
	r1, err := RunFaultContainment(7, containTestRun)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunFaultContainment(7, containTestRun)
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.Check(); err != nil {
		t.Fatalf("%v\n%s", err, r1)
	}
	if !reflect.DeepEqual(r1.Trace, r2.Trace) {
		t.Fatal("fault traces differ across identically seeded runs")
	}
	if !reflect.DeepEqual(r1.Hyp, r2.Hyp) {
		t.Fatalf("hypervisor stats differ: %+v vs %+v", r1.Hyp, r2.Hyp)
	}
	if !reflect.DeepEqual(r1.Faulted.Detours, r2.Faulted.Detours) {
		t.Fatal("faulted detour traces differ across identically seeded runs")
	}
}
