package kernel_test

// Idle Linux-primary ticks in closed form (DESIGN.md §9.9): an idle
// core's ticks are arithmetic settled at its next touch. With spans on
// no core goes lazy, which gives the eager reference; the differential
// test drives one random script of touches into an eager and a lazy node
// and compares everything either exposes after every step.

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"khsim/internal/core"
	"khsim/internal/gic"
	"khsim/internal/hafnium"
	"khsim/internal/kitten"
	"khsim/internal/linuxos"
	"khsim/internal/machine"
	"khsim/internal/osapi"
	"khsim/internal/sim"
	"khsim/internal/timer"
)

// idleManifest is a 4-core Linux primary carrying a job VM: VCPU 0 runs
// a chunked workload on core 0, VCPU 1 has no process and parks on
// core 1, and cores 2 and 3 only tick.
const idleManifest = `
[vm primary]
class = primary
vcpus = 4
memory_mb = 256

[vm job]
class = secondary
vcpus = 2
memory_mb = 64
`

// The script's stray SGI and device SPI, both enabled at setup.
const (
	idleSGI = 5
	idleSPI = gic.FirstSPI + 8
)

// chain is a process that runs its slices one after another and exits.
// Its progress lives in the pending slice's completion, so a node
// snapshot rewinds it with the core that runs it.
type chain struct {
	name   string
	slices []sim.Duration
}

func (p chain) Name() string          { return p.name }
func (p chain) Main(x osapi.Executor) { p.step(x, 0) }

func (p chain) step(x osapi.Executor, i int) {
	if i == len(p.slices) {
		x.Done()
		return
	}
	x.Exec(p.name, p.slices[i], func() { p.step(x, i+1) })
}

// idleRig is one node under the script.
type idleRig struct {
	n   *core.SecureNode
	k   *linuxos.Primary
	job *hafnium.VM
}

// newIdleRig boots the rig at time 0; eager turns spans on. Each of pre
// sends the stray SGI to its core at its instant, from an event armed
// at time 0, before the script runs.
func newIdleRig(t *testing.T, eager bool, pre []idlePre) *idleRig {
	t.Helper()
	n, err := core.NewSecureNode(core.Options{Seed: 3, Manifest: idleManifest, Scheduler: core.SchedulerLinux})
	if err != nil {
		t.Fatal(err)
	}
	n.Machine.Trace.SetSpans(eager)
	job, _ := n.Hyp.VMByName("job")
	g := kitten.NewGuest(kitten.DefaultParams())
	work := chain{name: "job.chunk"}
	for range 40 {
		work.slices = append(work.slices, 2*sim.Millisecond)
	}
	g.Attach(0, work)
	if err := n.AttachGuest("job", g, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := n.Boot(); err != nil {
		t.Fatal(err)
	}
	d := n.Machine.GIC
	for _, irq := range []int{idleSGI, idleSPI} {
		if err := d.Enable(irq); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range pre {
		c := p.core
		n.Machine.Engine.ScheduleNamed(p.at, "test.sgi", func() { _ = d.SendSGI(c, idleSGI) })
	}
	return &idleRig{n: n, k: n.LinuxPrimary, job: job}
}

// idlePre is a stray SGI armed at time 0.
type idlePre struct {
	at   sim.Time
	core int
}

// observe settles the node and prints everything the test compares: the
// registry less its event count, the GIC, hafnium and kernel counters,
// and per core its busy time, stack depth, idle state, running slice
// and phys timer.
func (r *idleRig) observe() string {
	m := r.n.Machine
	var b strings.Builder
	for _, line := range strings.SplitAfter(m.SnapshotMetrics().Text(), "\n") {
		if !strings.Contains(line, "events_fired") {
			b.WriteString(line)
		}
	}
	fmt.Fprintf(&b, "now %d\ngic %+v\nhyp %+v\nkernel %+v\n", m.Now(), m.GIC.Stats(), r.n.Hyp.Stats(), r.k.Stats())
	for _, c := range m.Cores {
		cur := "-"
		if a := c.Current(); a != nil {
			cur = fmt.Sprintf("%s/%d", a.Label, a.Remaining)
		}
		tm := m.Timers.Core(c.ID())
		fmt.Fprintf(&b, "core%d busy=%d depth=%d idle=%v cur=%s phys=%d/%v/%d\n", c.ID(), c.BusyTime(), c.Depth(),
			c.Idle(), cur, tm.Fired(timer.Phys), tm.Armed(timer.Phys), tm.Deadline(timer.Phys))
	}
	return b.String()
}

// idleStep is one step of the script: advance the clock to at, then
// apply op.
type idleStep struct {
	at     sim.Time
	op     int
	core   int
	slices []sim.Duration
	runs   bool // advance with SecureNode.Run, which settles at its end
}

// The script's operations.
const (
	opSGI = iota
	opSPI
	opReady
	opSpawn
	opMetrics
	opSnapshot
	opRestore
	numOps
)

// idleScript draws a script from seed. Every step lands on a core's
// tick grid: exactly on a tick, inside or at the end of its el2.trap
// slice, inside or at the end of its linux.tick slice, or anywhere in
// the period.
func idleScript(seed uint64, costs machine.Costs, p linuxos.Params) ([]idlePre, []idleStep) {
	rng := sim.NewRNG(seed)
	period, hyp, tick := p.TickHz.Period(), costs.HypTrap, p.TickCost
	grid := func(k int64, core int) sim.Time {
		return sim.Time(sim.Duration(k)*period + period*sim.Duration(core)/4)
	}
	offset := func() sim.Duration {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return hyp / 2
		case 2:
			return hyp
		case 3:
			return hyp + tick/2
		case 4:
			return hyp + tick
		default:
			return sim.Duration(rng.Intn(int(period/sim.Nanosecond))) * sim.Nanosecond
		}
	}
	// The SGIs armed at time 0 land exactly on skipped events: a tick,
	// a trap end or a tick end.
	var pre []idlePre
	for range 24 {
		c := rng.Intn(4)
		off := []sim.Duration{0, hyp, hyp + tick}[rng.Intn(3)]
		pre = append(pre, idlePre{at: grid(int64(2+rng.Intn(60)), c).Add(off), core: c})
	}
	var steps []idleStep
	k := int64(1)
	for range 40 {
		k += int64(1 + rng.Intn(4))
		s := idleStep{core: rng.Intn(4), op: rng.Intn(numOps), runs: rng.Intn(4) == 0}
		s.at = grid(k, s.core).Add(offset())
		for range 1 + rng.Intn(3) {
			s.slices = append(s.slices, sim.Duration(1+rng.Intn(3000))*sim.Microsecond)
		}
		steps = append(steps, s)
	}
	return pre, steps
}

// apply advances the rig to the step's instant, unless a restore has
// rewound it past that, and applies its op; snap holds the rig's last
// node snapshot.
func (r *idleRig) apply(t *testing.T, i int, s idleStep, snap *sim.State) {
	m := r.n.Machine
	if s.at > m.Now() {
		if s.runs {
			r.n.Run(s.at.Sub(m.Now()))
		} else {
			m.Engine.Run(s.at)
		}
	}
	switch s.op {
	case opSGI:
		if err := m.GIC.SendSGI(s.core, idleSGI); err != nil {
			t.Fatal(err)
		}
	case opSPI:
		if err := m.GIC.Route(idleSPI, s.core); err != nil {
			t.Fatal(err)
		}
		if err := m.GIC.RaiseSPI(idleSPI); err != nil {
			t.Fatal(err)
		}
	case opReady:
		r.k.VCPUReady(r.job.VCPU(1))
	case opSpawn:
		if *snap != nil {
			// A restore needs the task set the snapshot recorded.
			*snap = nil
		}
		if _, err := r.k.Spawn(fmt.Sprintf("proc%d", i), s.core, chain{name: "test.proc", slices: s.slices}); err != nil {
			t.Fatal(err)
		}
	case opMetrics:
		m.SnapshotMetrics()
	case opSnapshot:
		*snap = m.Snapshot()
	case opRestore:
		if *snap != nil {
			m.Restore(*snap)
		}
	}
}

// TestPropIdleTicksMatchEager: a random script of SGIs, device SPIs,
// VCPUReady wakes, Spawns, metrics reads, node snapshots and restores,
// at instants on tick boundaries and inside EL2 trap and tick slices,
// with Run boundaries in between and SGIs from events armed at time 0,
// leaves the lazy node exactly where the eager one is after every step.
func TestPropIdleTicksMatchEager(t *testing.T) {
	check := func(seed uint64) bool {
		pre, steps := idleScript(seed, machine.DefaultCosts(machine.DefaultFreq), linuxos.DefaultParams())
		eager, lazy := newIdleRig(t, true, pre), newIdleRig(t, false, pre)
		var eSnap, lSnap sim.State
		for i, s := range steps {
			eager.apply(t, i, s, &eSnap)
			lazy.apply(t, i, s, &lSnap)
			want, got := eager.observe(), lazy.observe()
			if want != got {
				t.Errorf("seed %d step %d (op %d on core %d at %d):\n%s", seed, i, s.op, s.core, s.at, firstDiff(want, got))
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// firstDiff shows the first line where got departs from want.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := range min(len(w), len(g)) {
		if w[i] != g[i] {
			return fmt.Sprintf("eager: %s\nlazy:  %s", w[i], g[i])
		}
	}
	return fmt.Sprintf("eager %d lines, lazy %d lines", len(w), len(g))
}
