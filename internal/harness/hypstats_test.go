package harness

import (
	"fmt"
	"reflect"
	"testing"

	"khsim/internal/core"
	"khsim/internal/kitten"
	"khsim/internal/sim"
	"khsim/internal/workload"
)

// hypStatSeries names the el2 registry series that records each
// hafnium.Stats field. A Stats field missing here fails the check, so a
// new field has to name its series.
var hypStatSeries = map[string]string{
	"Traps":            "traps",
	"WorldSwitches":    "world_switches",
	"Runs":             "hypercall.run",
	"Injections":       "virq_injections",
	"Forwards":         "device_forwards",
	"Kicks":            "kicks",
	"Messages":         "hypercall.msg_send",
	"Notifications":    "hypercall.notify",
	"Aborts":           "aborts",
	"Restarts":         "restarts",
	"Quarantines":      "quarantines",
	"ScrubbedPages":    "scrubbed_pages",
	"BadHypercalls":    "bad_hypercalls",
	"SnapshotRestores": "snapshot_restores",
	"MigratedOut":      "migrated_out",
	"MigratedIn":       "migrated_in",
	"MigrationAborts":  "migration_aborts",
	"RecyclesWarm":     "recycles_warm",
	"RecyclesCold":     "recycles_cold",
}

// checkHypStats fails t unless every hafnium.Stats field of n's
// hypervisor equals the sum of its el2 series over VMs (over cores for
// traps) in n's registry: bench/counts.go reads both records.
func checkHypStats(t *testing.T, what string, n *core.SecureNode) {
	t.Helper()
	sums := map[string]uint64{}
	for _, p := range n.Machine.SnapshotMetrics().Counters {
		if p.Key.Subsystem == "el2" {
			sums[p.Key.Name] += p.Value
		}
	}
	st := reflect.ValueOf(n.Hyp.Stats())
	for i := 0; i < st.NumField(); i++ {
		field := st.Type().Field(i).Name
		name, ok := hypStatSeries[field]
		if !ok {
			t.Errorf("%s: hafnium.Stats.%s names no registry series", what, field)
			continue
		}
		if got := st.Field(i).Uint(); got != sums[name] {
			t.Errorf("%s: hafnium.Stats.%s = %d, but el2.%s sums to %d", what, field, got, name, sums[name])
		}
	}
}

// TestHypervisorStatsMatchRegistry: after a whole run, hafnium's Stats
// and its el2 registry series agree field by field. The runs are the
// seed-1 containment experiment (both sides), a 0.1 s serving cell under
// each primary, a Linux-primary RandomAccess trial set up as
// RunWorkloadNode sets it up, where most traps are the idle cores' settled
// ticks, read once mid-run and once at its end, and every node of every
// cell of the seed-1 migration suite.
func TestHypervisorStatsMatchRegistry(t *testing.T) {
	for _, inject := range []bool{false, true} {
		_, n, _, err := runContainmentSide(1, containRunTime, inject)
		if err != nil {
			t.Fatal(err)
		}
		checkHypStats(t, fmt.Sprintf("containment inject=%v", inject), n)
	}
	for _, sched := range []core.Scheduler{core.SchedulerKitten, core.SchedulerLinux} {
		n, _ := startServingCell(t, sched, 4000, sim.FromSeconds(0.1))
		n.Run(sim.FromSeconds(0.15))
		checkHypStats(t, fmt.Sprintf("serving %v", sched), n)
	}
	linuxTrialHypStats(t)
	cells := 0
	_, err := runMigrationSuite(1, func(stacks []*core.SecureNode) {
		for i, n := range stacks {
			checkHypStats(t, fmt.Sprintf("migration cell %d node %d", cells, i), n)
		}
		cells++
	})
	if err != nil {
		t.Fatal(err)
	}
	if cells == 0 {
		t.Fatal("the migration suite ran no cell")
	}
}

// linuxTrialHypStats runs the Linux-primary RandomAccess trial of
// RunWorkloadNode at seed 1 and checks the hypervisor's Stats against its
// registry from an event halfway through the horizon and after it.
func linuxTrialHypStats(t *testing.T) {
	t.Helper()
	spec := workload.GUPS()
	n, err := core.NewSecureNode(core.Options{Seed: 1, Manifest: vmManifest, Scheduler: core.SchedulerLinux})
	if err != nil {
		t.Fatal(err)
	}
	guest := kitten.NewGuest(kitten.DefaultParams())
	guest.Attach(0, workload.New(spec, workload.Env{TwoStage: true, RNG: sim.NewRNG(2654435761 + uint64(LinuxVM))}))
	if err := n.AttachGuest("job", guest); err != nil {
		t.Fatal(err)
	}
	if err := n.Boot(); err != nil {
		t.Fatal(err)
	}
	horizon := sim.FromSeconds(spec.TotalOps/spec.NativeRate)*2 + sim.FromSeconds(2)
	n.Machine.Engine.ScheduleNamed(n.Machine.Now().Add(horizon/2), "test.read", func() {
		checkHypStats(t, "linux trial mid-run", n)
	})
	n.Run(horizon)
	checkHypStats(t, "linux trial", n)
}
