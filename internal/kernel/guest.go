package kernel

import (
	"fmt"
	"sort"

	"khsim/internal/gic"
	"khsim/internal/hafnium"
	"khsim/internal/machine"
	"khsim/internal/metrics"
	"khsim/internal/osapi"
	"khsim/internal/sim"
)

// GuestConfig parameterizes the shared guest-kernel substrate: labels and
// handler costs, plus two hooks for policy-specific noise (the Linux
// guest's deferred kthread work).
type GuestConfig struct {
	// Label prefixes Exec labels: "<label>.tick", "<label>.notify",
	// "<label>.mbox", "<label>.dev".
	Label string
	// TickHz drives the VM's dedicated virtual timer.
	TickHz sim.Hertz
	// TickCost is the base tick handler cost.
	TickCost sim.Duration
	// NotifyCost is charged per doorbell notification.
	NotifyCost sim.Duration
	// MboxCost is charged per mailbox message handled.
	MboxCost sim.Duration
	// DevCost is the default per-device-interrupt cost when the Guest's
	// DeviceIRQCost override is unset.
	DevCost sim.Duration
	// IdleLoop keeps VCPUs with no attached process ticking (Linux's
	// login-VM role) instead of blocking them for good (the LWK job
	// model, where a VCPU without work parks itself).
	IdleLoop bool
	// BootWork, if set, runs at each VCPU boot before the first tick is
	// armed (the Linux guest seeds its deferred-work schedule here).
	BootWork func(now sim.Time)
	// TickWork, if set, reports extra work due at a tick (the Linux
	// guest's kthread activations, drawn at IRQ time).
	TickWork func(now sim.Time) sim.Duration
}

// Guest is the shared guest-kernel substrate: tick plumbing, the four
// VIRQ handlers, per-VCPU workload processes, and the osapi.Executor
// they run under.
type Guest struct {
	cfg GuestConfig

	// procs maps VCPU index to the workload it runs.
	procs map[int]osapi.Process

	// OnMessage, if set, handles mailbox messages (the job-control side).
	OnMessage func(vc *hafnium.VCPU, msg hafnium.Message)
	// OnDeviceIRQ, if set, handles forwarded device interrupts (drivers).
	OnDeviceIRQ func(vc *hafnium.VCPU, virq int)
	// OnNotification, if set, handles doorbell notifications (shared-
	// memory channels signalling progress).
	OnNotification func(vc *hafnium.VCPU)
	// DeviceIRQCost overrides the per-device-interrupt cost.
	DeviceIRQCost sim.Duration

	ticks   uint64
	devirqs uint64
	done    map[int]bool
	running map[int]bool

	// The handler labels are built once: each virtual interrupt runs one.
	labelTick, labelNotify, labelMbox, labelDev string
	// mc caches the guest.* counters of the VM the guest last ran on.
	mc guestCounters
}

// guestCounters are one VM's guest.* counters, each registered on the
// VM's first tick or device interrupt (hafnium.VM.CachedMetric).
type guestCounters struct {
	vm             *hafnium.VM
	ticks, devIRQs *metrics.Counter
}

// NewGuest builds a guest kernel from its cost table.
func NewGuest(cfg GuestConfig) *Guest {
	return &Guest{
		cfg:         cfg,
		procs:       make(map[int]osapi.Process),
		done:        make(map[int]bool),
		running:     make(map[int]bool),
		labelTick:   cfg.Label + ".tick",
		labelNotify: cfg.Label + ".notify",
		labelMbox:   cfg.Label + ".mbox",
		labelDev:    cfg.Label + ".dev",
	}
}

// counters returns the counter cache for vc's VM. A guest is normally
// attached to one VM; one that serves another VM starts a fresh cache,
// so a counter never publishes under the wrong VM's label.
func (g *Guest) counters(vc *hafnium.VCPU) *guestCounters {
	if vm := vc.VM(); g.mc.vm != vm {
		g.mc = guestCounters{vm: vm}
	}
	return &g.mc
}

// Attach assigns a workload process to VCPU index vcpu.
func (g *Guest) Attach(vcpu int, p osapi.Process) { g.procs[vcpu] = p }

// Ticks reports guest timer ticks handled.
func (g *Guest) Ticks() uint64 { return g.ticks }

// DeviceIRQs reports forwarded device interrupts handled.
func (g *Guest) DeviceIRQs() uint64 { return g.devirqs }

// Done reports whether the workload on a VCPU has finished.
func (g *Guest) Done(vcpu int) bool { return g.done[vcpu] }

// Boot implements hafnium.GuestOS.
func (g *Guest) Boot(vc *hafnium.VCPU) {
	if g.cfg.BootWork != nil {
		g.cfg.BootWork(vc.Now())
	}
	vc.ArmVTimerAfter(g.cfg.TickHz.Period())
	p := g.procs[vc.Index()]
	if p == nil && !g.cfg.IdleLoop {
		// LWK job model: a VCPU with no work parks itself for good.
		vc.CancelVTimer()
		vc.Block()
		return
	}
	g.running[vc.Index()] = true
	if p != nil {
		p.Main(&guestExec{g: g, vc: vc})
	}
	// IdleLoop with no process: the VM idles, waking for ticks, messages
	// and device interrupts.
}

// HandleVIRQ implements hafnium.GuestOS.
func (g *Guest) HandleVIRQ(vc *hafnium.VCPU, virq int) {
	switch {
	case virq == gic.IRQVirtualTimer:
		g.tick(vc)
	case virq == hafnium.VIRQNotification:
		vc.Exec(g.labelNotify, g.cfg.NotifyCost, func() {
			if g.OnNotification != nil {
				g.OnNotification(vc)
			}
		})
	case virq == hafnium.VIRQMailbox:
		vc.Exec(g.labelMbox, g.cfg.MboxCost, func() {
			if msg, err := vc.ReceiveMessage(); err == nil && g.OnMessage != nil {
				g.OnMessage(vc, msg)
			}
		})
	default:
		cost := g.DeviceIRQCost
		if cost == 0 {
			cost = g.cfg.DevCost
		}
		g.devirqs++
		mc := g.counters(vc)
		mc.vm.CachedMetric(&mc.devIRQs, "device_irqs").Inc()
		vc.Exec(g.labelDev, cost, func() {
			if g.OnDeviceIRQ != nil {
				g.OnDeviceIRQ(vc, virq)
			}
		})
	}
}

// tick is the in-guest tick: base handler cost plus any policy work due
// (drawn at IRQ time so noise RNG streams advance deterministically).
func (g *Guest) tick(vc *hafnium.VCPU) {
	cost := g.cfg.TickCost
	if g.cfg.TickWork != nil {
		cost += g.cfg.TickWork(vc.Now())
	}
	vc.Exec(g.labelTick, cost, func() {
		g.ticks++
		mc := g.counters(vc)
		mc.vm.CachedMetric(&mc.ticks, "ticks").Inc()
		if g.running[vc.Index()] {
			vc.ArmVTimerAfter(g.cfg.TickHz.Period())
		}
	})
}

// guestMigState is the guest kernel's portable migration image: the
// counters plus one exported state per Portable workload process, in
// VCPU order.
type guestMigState struct {
	Ticks   uint64
	DevIRQs uint64
	Done    map[int]bool
	Running map[int]bool
	Procs   []procMigState
}

// procMigState is one workload's exported state.
type procMigState struct {
	VCPU  int
	State any
}

// guestMigHeaderBytes is the modeled wire size of the kernel-level
// migration image excluding the per-process states.
const guestMigHeaderBytes = 48

// ExportMigration implements hafnium.MigratableGuest: it packages the
// kernel counters and every osapi.Portable workload's exported state
// into a plain value the migration transfer can ship, returning the
// image and its modeled wire size. Processes that are not Portable are
// left behind (they restart from scratch on the destination).
func (g *Guest) ExportMigration() (any, int) {
	st := &guestMigState{
		Ticks:   g.ticks,
		DevIRQs: g.devirqs,
		Done:    make(map[int]bool, len(g.done)),
		Running: make(map[int]bool, len(g.running)),
	}
	for k, v := range g.done {
		st.Done[k] = v
	}
	for k, v := range g.running {
		st.Running[k] = v
	}
	bytes := guestMigHeaderBytes
	// Walk VCPUs in sorted order so the image layout is deterministic.
	idx := make([]int, 0, len(g.procs))
	for i := range g.procs {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		if p, ok := g.procs[i].(osapi.Portable); ok {
			ps, n := p.ExportState()
			st.Procs = append(st.Procs, procMigState{VCPU: i, State: ps})
			bytes += n
		}
	}
	return st, bytes
}

// ImportMigration implements hafnium.MigratableGuest: it reinstalls an
// exported image into this (standby, never-booted) guest. The attached
// processes must be Portable instances matching the image's VCPU slots;
// their next Main call — the fresh boot the hypervisor drives after
// admitting the VM — continues from the imported state.
func (g *Guest) ImportMigration(state any) error {
	st, ok := state.(*guestMigState)
	if !ok {
		return fmt.Errorf("kernel: guest ImportMigration of foreign state %T", state)
	}
	for _, ps := range st.Procs {
		p, ok := g.procs[ps.VCPU].(osapi.Portable)
		if !ok {
			return fmt.Errorf("kernel: vcpu %d has no portable process to import into", ps.VCPU)
		}
		if err := p.ImportState(ps.State); err != nil {
			return err
		}
	}
	g.ticks = st.Ticks
	g.devirqs = st.DevIRQs
	g.done = make(map[int]bool, len(st.Done))
	for k, v := range st.Done {
		g.done[k] = v
	}
	g.running = make(map[int]bool, len(st.Running))
	for k, v := range st.Running {
		g.running[k] = v
	}
	return nil
}

// guestExec adapts a VCPU to osapi.Executor.
type guestExec struct {
	g  *Guest
	vc *hafnium.VCPU
}

func (e *guestExec) Exec(label string, d sim.Duration, fn func()) {
	e.vc.Exec(label, d, fn)
}

func (e *guestExec) Run(a *machine.Activity) { e.vc.Run(a) }

func (e *guestExec) Now() sim.Time { return e.vc.Now() }

func (e *guestExec) Done() {
	e.g.done[e.vc.Index()] = true
	e.g.running[e.vc.Index()] = false
	// Quiesce: no more ticks, give the core back for good.
	e.vc.CancelVTimer()
	e.vc.Block()
}
