package hafnium

import (
	"fmt"

	"khsim/internal/gic"
	"khsim/internal/machine"
	"khsim/internal/sim"
	"khsim/internal/timer"
)

// VCPU is one virtual CPU of a VM. While resident on a physical core the
// guest kernel drives it with Exec/Run; when descheduled, its in-flight
// activity, virtual-timer deadline and pending virtual interrupts are
// saved here — the state Hafnium's EL2 context switch preserves.
type VCPU struct {
	vm    *VM
	index int
	state VCPUState
	core  int // physical core while running, else -1

	saved []*machine.Activity // full suspension stack, bottom first
	// entering holds the saved frames between RunVCPU and the end of its
	// el2.run entry, when they go back on the core.
	entering []*machine.Activity
	pending  []int // queued virtual interrupts (deduplicated)
	booted   bool

	vtArmed    bool
	vtDeadline sim.Time
	// vtWatch pends the vtimer interrupt when the deadline passes while
	// the VCPU is descheduled. It is created on the VCPU's first watch.
	vtWatch *sim.Register

	name string // memoized String(); a VCPU's identity never changes

	// EL2 completions for machine.Core.ExecBound, bound once here so the
	// injection, entry and exit paths build no closure. Each reads only
	// the VCPU's identity and state a snapshot records (vc.entering,
	// vc.pending); the per-call value is the integer argument.
	injectFn, drainFn, runFn, exitFn func(c *machine.Core, arg int)
	drainHandler                     func(c *machine.Core) // CallHandler form of drainPending

	runs uint64
}

func newVCPU(v *VM, index int) *VCPU {
	vc := &VCPU{vm: v, index: index, core: -1, state: VCPUStopped}
	vc.injectFn = vc.injectDone
	vc.drainFn = vc.drainDone
	vc.runFn = vc.runDone
	vc.exitFn = vc.exitDone
	vc.drainHandler = vc.drainNext
	return vc
}

// VM returns the owning VM.
func (vc *VCPU) VM() *VM { return vc.vm }

// Index reports the VCPU number within its VM.
func (vc *VCPU) Index() int { return vc.index }

// State reports the scheduling state.
func (vc *VCPU) State() VCPUState { return vc.state }

// Runs reports how many times the VCPU has been entered.
func (vc *VCPU) Runs() uint64 { return vc.runs }

// String identifies the VCPU in errors and traces.
func (vc *VCPU) String() string {
	if vc.name == "" {
		vc.name = fmt.Sprintf("%s/vcpu%d", vc.vm.spec.Name, vc.index)
	}
	return vc.name
}

// resident returns the physical core the VCPU occupies, or nil. Guest API
// use from a non-resident context is guest misbehaviour (a rogue
// hypercall), not a simulator bug: the offending VM is crashed and the
// caller drops the work.
func (vc *VCPU) resident() *machine.Core {
	if vc.core < 0 {
		vc.vm.hyp.badHypercall(vc.vm, fmt.Sprintf("%s hypercall while not resident", vc))
		return nil
	}
	return vc.vm.hyp.node.Cores[vc.core]
}

// Now reports simulated time (usable from any context).
func (vc *VCPU) Now() sim.Time { return vc.vm.hyp.node.Now() }

// Exec runs guest work on the resident core.
func (vc *VCPU) Exec(label string, d sim.Duration, fn func()) {
	if c := vc.resident(); c != nil {
		c.Exec(label, d, fn)
	}
}

// ExecBound is the allocation-free form of Exec for guest work whose
// completion needs only one integer (a virtual interrupt number): fn is
// bound once by the guest and called as fn(c, arg) on the core the work
// completes on (see machine.Core.ExecBound).
func (vc *VCPU) ExecBound(label string, d sim.Duration, fn func(c *machine.Core, arg int), arg int) {
	if c := vc.resident(); c != nil {
		c.ExecBound(label, d, false, fn, arg)
	}
}

// Run runs a prepared guest activity on the resident core.
func (vc *VCPU) Run(a *machine.Activity) {
	if c := vc.resident(); c != nil {
		c.Run(a)
	}
}

// ArmVTimer programs the VM's dedicated virtual timer channel to fire at
// the absolute time at (the paper's §IV-b: secondaries "must use ... the
// dedicated virtual architectural timer channel").
func (vc *VCPU) ArmVTimer(at sim.Time) {
	vc.vtArmed = true
	vc.vtDeadline = at
	if vc.core >= 0 {
		vc.vm.hyp.node.Timers.Core(vc.core).Arm(timer.Virt, at)
	} else {
		vc.vm.hyp.watchVTimer(vc)
	}
}

// ArmVTimerAfter arms the virtual timer d from now.
func (vc *VCPU) ArmVTimerAfter(d sim.Duration) { vc.ArmVTimer(vc.Now().Add(d)) }

// CancelVTimer disarms the virtual timer.
func (vc *VCPU) CancelVTimer() {
	vc.vtArmed = false
	if vc.core >= 0 {
		vc.vm.hyp.node.Timers.Core(vc.core).CancelChannel(timer.Virt)
	}
	if vc.vtWatch != nil {
		vc.vtWatch.Disarm()
	}
}

// VTimerArmed reports whether the virtual timer has a live deadline.
func (vc *VCPU) VTimerArmed() bool { return vc.vtArmed }

// VTimerDeadline reports the programmed deadline (meaningful while
// VTimerArmed reports true).
func (vc *VCPU) VTimerDeadline() sim.Time { return vc.vtDeadline }

// Yield exits to the primary, leaving the VCPU runnable (FFA_YIELD).
// Call from guest context with no in-flight guest activity.
func (vc *VCPU) Yield() { vc.vm.hyp.guestExit(vc, ExitYield) }

// Block exits to the primary until an interrupt arrives (FFA_MSG_WAIT).
func (vc *VCPU) Block() { vc.vm.hyp.guestExit(vc, ExitBlocked) }

// Abort models a fatal guest error (stage-2 abort escalation): the whole
// VM is marked aborted and the primary is notified.
func (vc *VCPU) Abort() { vc.vm.hyp.guestAbort(vc) }

// SendMessage sends from this VM's context (hypercall FFA_MSG_SEND).
func (vc *VCPU) SendMessage(to VMID, payload []byte) error {
	return vc.vm.hyp.msgSend(vc.vm.id, to, payload)
}

// ReceiveMessage pops this VM's mailbox.
func (vc *VCPU) ReceiveMessage() (Message, error) {
	return vc.vm.hyp.msgRecv(vc.vm.id)
}

// pendVIRQ queues a virtual interrupt, deduplicating level-style.
func (vc *VCPU) pendVIRQ(virq int) {
	for _, p := range vc.pending {
		if p == virq {
			return
		}
	}
	vc.pending = append(vc.pending, virq)
}

// PendingVIRQs returns a copy of the queued virtual interrupts.
func (vc *VCPU) PendingVIRQs() []int {
	out := make([]int, len(vc.pending))
	copy(out, vc.pending)
	return out
}

// ClassOfVIRQ mirrors the guest-visible interrupt naming: the virtual
// timer arrives as the architectural PPI 27, mailbox notifications as
// VIRQMailbox, forwarded device interrupts keep their SPI numbers.
func ClassOfVIRQ(virq int) gic.Class { return gic.ClassOf(virq) }
