package harness

import (
	"runtime"
	"testing"

	"khsim/internal/core"
	"khsim/internal/sim"
)

// servingAllocBudget is the steady-state allocation budget of the serving
// path, in heap objects per fired engine event. Kernel work slices,
// hypercall counters, pool messages and the mailbox slot allocate
// nothing; what is left is per-job and per-transition state (the job
// record, the receiver's mailbox page copy, EL2 and guest callbacks that
// close over per-call state).
const servingAllocBudget = 2.0

// TestServingAllocBudget makes the allocation-free claim for the serving
// hot path a check that can fail: a Kitten-primary pool at 4000 jobs/s
// is warmed up, then run for 100 ms of simulated time while the heap
// allocations are counted against the engine events fired.
func TestServingAllocBudget(t *testing.T) {
	warm, span := sim.FromSeconds(0.05), sim.FromSeconds(0.1)
	n, _ := startServingCell(t, core.SchedulerKitten, 4000, warm+span)
	n.Run(warm)
	eng := n.Machine.Engine
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fired := eng.Fired()
	n.Run(span)
	runtime.ReadMemStats(&m1)
	events := eng.Fired() - fired
	if events < 5000 {
		t.Fatalf("only %d events in the measured span; the pool is not in steady state", events)
	}
	perEvent := float64(m1.Mallocs-m0.Mallocs) / float64(events)
	t.Logf("%d events, %.3f allocs/event", events, perEvent)
	if perEvent > servingAllocBudget {
		t.Errorf("serving path allocates %.3f objects per event, budget %.1f", perEvent, servingAllocBudget)
	}
}
