// Package kernel is the shared kernel substrate beneath the simulator's
// primary-VM kernels. The paper compares the same workloads under three
// kernel configurations (native Kitten, Kitten as Hafnium's primary,
// Linux as Hafnium's primary); everything those kernels share — the task
// state machine, per-core dispatch, timer-tick plumbing, the
// osapi.Executor implementation, the Hafnium glue (AddVM, VCPU↔task
// mapping, VCPUExited/VCPUReady/HandleIRQ, world-switch re-entry), the
// control task, and the boot/spawn lifecycle — lives here exactly once,
// parameterized by a small Policy interface plus a cost table (Config).
//
// internal/kitten and internal/linuxos are thin policy + params wrappers
// over this substrate: Kitten contributes the cooperative round-robin
// policy, Linux the CFS policy with its background-kthread machinery.
package kernel

import (
	"fmt"

	"khsim/internal/gic"
	"khsim/internal/hafnium"
	"khsim/internal/machine"
	"khsim/internal/metrics"
	"khsim/internal/osapi"
	"khsim/internal/sim"
)

// TaskState tracks a task through the scheduler.
type TaskState int

// Task states.
const (
	TaskReady TaskState = iota
	TaskRunning
	TaskBlocked
	TaskDone
)

// String names the task state for traces and panics.
func (s TaskState) String() string {
	switch s {
	case TaskReady:
		return "ready"
	case TaskRunning:
		return "running"
	case TaskBlocked:
		return "blocked"
	default:
		return "done"
	}
}

// Task is one schedulable entity: a VCPU kernel thread (the per-VCPU
// thread both kernels create for Hafnium's RUN protocol), a user process,
// or a policy-owned background kthread.
type Task struct {
	name  string
	core  int
	state TaskState
	index int // position in Kernel.tasks

	vc    *hafnium.VCPU
	proc  osapi.Process
	spec  *KthreadSpec
	label string // a kthread's activation label, "<kernel>.<spec name>"

	started bool
	saved   []*machine.Activity

	ent         Entity // CFS accounting state (ignored by queue policies)
	ran         int    // ticks consumed in the current quantum
	activations uint64 // kthread activations dispatched
}

// Name reports the task name.
func (t *Task) Name() string { return t.name }

// State reports the scheduler state.
func (t *Task) State() TaskState { return t.state }

// Core reports the task's CPU affinity.
func (t *Task) Core() int { return t.core }

// IsVCPU reports whether the task is a VCPU kernel thread.
func (t *Task) IsVCPU() bool { return t.vc != nil }

// Activations reports kthread activations (tests & noise accounting).
func (t *Task) Activations() uint64 { return t.activations }

// String summarizes the task (name, home core, state) for diagnostics.
func (t *Task) String() string {
	return fmt.Sprintf("%s(core%d,%v)", t.name, t.core, t.state)
}

// Stats are the substrate's activity counters.
type Stats struct {
	Ticks       uint64 // timer ticks handled
	Wakeups     uint64 // background-thread activations dispatched
	Forwards    uint64 // device IRQs forwarded to the super-secondary
	Commands    uint64 // control-task commands executed
	BadCommands uint64 // unknown control commands (each also traced)
}

// Kernel is the shared substrate. It runs in one of two modes: as
// Hafnium's primary scheduling VM (NewPrimary; Hafnium calls the
// PrimaryOS methods) or bare-metal with no hypervisor underneath
// (NewNative; the kernel owns the GIC dispatch directly).
type Kernel struct {
	node *machine.Node
	h    *hafnium.Hypervisor // nil in native mode
	pol  Policy
	cfg  Config

	current []*Task
	// vcTask holds each VCPU's kernel thread, indexed by VM ID and then
	// by VCPU index; a VM that AddVM never saw has no row.
	vcTask  [][]*Task
	started bool

	// tasks is every task ever created, in creation order — the stable
	// enumeration snapshots record task state against.
	tasks []*Task

	labelIRQ string // cfg.Label + ".irq", built once (IRQ hot path)
	labelFwd string // cfg.Label + ".fwd", built once (IRQ hot path)
	// mboxFns are the per-core mailbox-IRQ handler bodies, bound once
	// (every admitted and completed serving job passes through one).
	mboxFns []func()

	kthreads []*Task

	// OnMessage, if set, overrides the built-in control-task command
	// handler for mailbox messages.
	OnMessage func(msg hafnium.Message)

	// The node registry's counters are the kernel's only count of each
	// quantity; Stats and the accessors read them. A node holds one
	// Kernel, so no two kernels share a counter, and Node.Restore rewinds
	// them with the registry.
	mTicks       *metrics.Counter
	mWakeups     *metrics.Counter
	mForwards    *metrics.Counter
	mCommands    *metrics.Counter
	mBadCommands *metrics.Counter
}

// NewPrimary builds a kernel in primary-VM mode over a hypervisor.
func NewPrimary(h *hafnium.Hypervisor, pol Policy, cfg Config) *Kernel {
	return newKernel(h.Node(), h, pol, cfg)
}

// NewNative builds a bare-metal kernel over the node; Start boots it.
func NewNative(node *machine.Node, pol Policy, cfg Config) *Kernel {
	return newKernel(node, nil, pol, cfg)
}

func newKernel(node *machine.Node, h *hafnium.Hypervisor, pol Policy, cfg Config) *Kernel {
	k := &Kernel{
		node:    node,
		h:       h,
		pol:     pol,
		cfg:     cfg,
		current: make([]*Task, len(node.Cores)),
	}
	k.labelIRQ = cfg.Label + ".irq"
	k.labelFwd = cfg.Label + ".fwd"
	k.mboxFns = make([]func(), len(node.Cores))
	for _, c := range node.Cores {
		k.mboxFns[c.ID()] = func() {
			k.controlTask(c)
			k.resume(c)
		}
	}
	mx := node.Metrics
	k.mTicks = mx.Counter(metrics.K("kernel", "ticks"))
	k.mWakeups = mx.Counter(metrics.K("kernel", "wakeups"))
	k.mForwards = mx.Counter(metrics.K("kernel", "device_forwards"))
	k.mCommands = mx.Counter(metrics.K("kernel", "commands"))
	k.mBadCommands = mx.Counter(metrics.K("kernel", "bad_commands"))
	pol.Attach(k)
	node.RegisterSnapshotter("kernel."+cfg.Label, k)
	return k
}

// Node returns the underlying machine.
func (k *Kernel) Node() *machine.Node { return k.node }

// Hypervisor returns the hypervisor, nil in native mode.
func (k *Kernel) Hypervisor() *hafnium.Hypervisor { return k.h }

// Policy returns the scheduling policy.
func (k *Kernel) Policy() Policy { return k.pol }

// Ticks reports handled scheduler ticks.
func (k *Kernel) Ticks() uint64 { return k.mTicks.Value() }

// Wakeups reports background-thread activations dispatched.
func (k *Kernel) Wakeups() uint64 { return k.mWakeups.Value() }

// Forwards reports device IRQs forwarded to the super-secondary.
func (k *Kernel) Forwards() uint64 { return k.mForwards.Value() }

// Stats snapshots the substrate counters.
func (k *Kernel) Stats() Stats {
	return Stats{
		Ticks:       k.mTicks.Value(),
		Wakeups:     k.mWakeups.Value(),
		Forwards:    k.mForwards.Value(),
		Commands:    k.mCommands.Value(),
		BadCommands: k.mBadCommands.Value(),
	}
}

// Current reports the task owning a core (for a resident guest, its VCPU
// thread).
func (k *Kernel) Current(core int) *Task { return k.current[core] }

// Task reports the kernel thread backing a VCPU, nil if AddVM never saw
// its VM.
func (k *Kernel) Task(vc *hafnium.VCPU) *Task {
	if id := int(vc.VM().ID()); id < len(k.vcTask) {
		if row := k.vcTask[id]; vc.Index() < len(row) {
			return row[vc.Index()]
		}
	}
	return nil
}

// Kthreads returns the policy's background thread population.
func (k *Kernel) Kthreads() []*Task { return k.kthreads }

// newTask builds a task with its CFS entity initialized; policies that
// do not use entities simply ignore it.
func (k *Kernel) newTask(name string, core int) *Task {
	t := &Task{name: name, core: core, state: TaskReady, index: len(k.tasks)}
	t.ent = Entity{Name: name, Weight: DefaultWeight, owner: t}
	k.tasks = append(k.tasks, t)
	return t
}

// AddKthread creates a blocked background-thread task owned by the
// policy (which arms its activations and runs its work).
func (k *Kernel) AddKthread(name string, core int, spec *KthreadSpec) *Task {
	t := k.newTask(name, core)
	t.state = TaskBlocked
	t.spec = spec
	t.label = k.cfg.Label + "." + spec.Name
	k.kthreads = append(k.kthreads, t)
	return t
}

// AddVM creates one kernel thread per VCPU of vm. VCPUs "are spread
// across available CPU cores incrementally" (§IV-a) unless explicit
// assignments are given.
func (k *Kernel) AddVM(vm *hafnium.VM, cores ...int) error {
	if k.h == nil {
		return fmt.Errorf("%s: AddVM without a hypervisor", k.cfg.Label)
	}
	n := vm.VCPUs()
	if len(cores) != 0 && len(cores) != n {
		return fmt.Errorf("%s: AddVM(%s): %d cores for %d vcpus", k.cfg.Label, vm.Name(), len(cores), n)
	}
	id := int(vm.ID())
	for id >= len(k.vcTask) {
		k.vcTask = append(k.vcTask, nil)
	}
	k.vcTask[id] = make([]*Task, n)
	for i := 0; i < n; i++ {
		core := i % len(k.node.Cores)
		if len(cores) != 0 {
			core = cores[i]
		}
		if core < 0 || core >= len(k.node.Cores) {
			return fmt.Errorf("%s: AddVM(%s): bad core %d", k.cfg.Label, vm.Name(), core)
		}
		vc := vm.VCPU(i)
		t := k.newTask(fmt.Sprintf("vcpu-%s/%d", vm.Name(), i), core)
		t.vc = vc
		k.vcTask[id][i] = t
		k.pol.Enqueue(t)
		if k.started && k.current[core] == nil {
			k.schedule(k.node.Cores[core])
		}
	}
	return nil
}

// Spawn creates an ordinary process task pinned to core (e.g. a
// primary-side benchmark). Before boot it only enqueues; afterwards an
// idle core picks it up immediately.
func (k *Kernel) Spawn(name string, core int, p osapi.Process) (*Task, error) {
	if core < 0 || core >= len(k.node.Cores) {
		return nil, fmt.Errorf("%s: spawn %q on bad core %d", k.cfg.Label, name, core)
	}
	t := k.newTask(name, core)
	t.proc = p
	k.pol.Enqueue(t)
	if k.started && k.current[core] == nil {
		k.schedule(k.node.Cores[core])
	}
	return t, nil
}

// Boot implements hafnium.PrimaryOS: let the policy arm its timers and
// create its background threads, then start scheduling.
func (k *Kernel) Boot() {
	k.pol.Boot(k)
	k.started = true
	for _, c := range k.node.Cores {
		if k.current[c.ID()] == nil {
			k.schedule(c)
		}
	}
}

// Start boots a native-mode kernel: GIC plumbing, policy timers, and an
// initial scheduling pass.
func (k *Kernel) Start() error {
	if k.h != nil {
		return fmt.Errorf("%s: Start on a primary-mode kernel (Hafnium boots it)", k.cfg.Label)
	}
	if k.started {
		return fmt.Errorf("%s: already started", k.cfg.Label)
	}
	d := k.node.GIC
	if err := d.Enable(gic.IRQPhysTimer); err != nil {
		return err
	}
	d.SetPriority(gic.IRQPhysTimer, 0x20)
	for _, c := range k.node.Cores {
		c.SetDispatcher(k.dispatch)
		c.SetOnIdle(func(c *machine.Core) { k.schedule(c) })
	}
	k.pol.Boot(k)
	k.started = true
	for _, c := range k.node.Cores {
		if k.current[c.ID()] == nil {
			k.schedule(c)
		}
	}
	return nil
}

// EvictionPages implements hafnium.PrimaryOS.
func (k *Kernel) EvictionPages() int { return k.cfg.EvictPages }

// dispatch is the native-mode interrupt entry: acknowledge, handle, EOI.
func (k *Kernel) dispatch(c *machine.Core) {
	irq := k.node.GIC.Acknowledge(c.ID())
	if irq == gic.SpuriousIRQ {
		return
	}
	k.node.GIC.EOI(c.ID(), irq)
	entry := k.node.Costs.ExceptionEntry + k.node.Costs.IRQDeliverGIC
	switch irq {
	case gic.IRQPhysTimer:
		k.pol.OnTickNative(k, c, entry)
	default:
		// A native LWK has no drivers to speak of; unknown IRQs are
		// charged their delivery cost and dropped.
		c.Exec(k.labelIRQ, entry, nil)
	}
}

// HandleIRQ implements hafnium.PrimaryOS: the primary's interrupt work.
// Hafnium has already charged trap and (if a guest was resident) world
// switch costs; the preempted VCPU, if any, is k.h.Preempted(c).
func (k *Kernel) HandleIRQ(c *machine.Core, irq int) {
	pre := k.h.Preempted(c)
	if pre != nil {
		// Sanity: the displaced guest must be our current task's VCPU.
		if t := k.Task(pre); t != k.current[c.ID()] {
			panic(fmt.Sprintf("%s: preempted %v is not current %v", k.cfg.Label, pre, k.current[c.ID()]))
		}
	}
	switch {
	case irq == gic.IRQPhysTimer:
		k.pol.OnTick(k, c)
	case irq == hafnium.VIRQMailbox:
		c.Exec(k.cfg.MboxLabel, k.cfg.MboxCost, k.mboxFns[c.ID()])
	case gic.ClassOf(irq) == gic.SPI:
		// Device interrupt: the paper's current routing — "route all
		// interrupts to the primary VM which is then responsible for
		// forwarding any device IRQ on to the super-secondary".
		c.Exec(k.labelFwd, k.cfg.CtxSwitch, func() {
			if super := k.h.Super(); super != nil {
				if err := k.h.InjectDeviceIRQ(super.ID(), irq); err == nil {
					k.mForwards.Inc()
				}
			}
			k.resume(c)
		})
	default:
		// Stray SGI/PPI: count nothing, just resume.
		c.Exec(k.labelIRQ, k.cfg.CtxSwitch/2, func() { k.resume(c) })
	}
}

// resume continues the current task after kernel-side interrupt work.
func (k *Kernel) resume(c *machine.Core) {
	cur := k.current[c.ID()]
	if cur == nil {
		k.schedule(c)
		return
	}
	if cur.vc != nil {
		if c.Depth() != 0 {
			// An interrupted handler frame is still suspended; it resumes
			// first and its completion path re-enters the guest.
			return
		}
		// Re-enter the guest. It can have stopped/blocked underneath us
		// (StopVM from the control task, abort on another core).
		switch cur.vc.State() {
		case hafnium.VCPURunnable:
			if err := k.h.RunVCPU(c, cur.vc); err != nil {
				k.blockCurrent(c, cur)
				k.schedule(c)
			}
		case hafnium.VCPURunning:
			// Already resident (the IRQ hit between bookkeeping steps).
		default:
			k.blockCurrent(c, cur)
			k.schedule(c)
		}
		return
	}
	// Process/kthread frames resume from the suspension stack.
}

// deschedule moves the current task back to the ready queue.
func (k *Kernel) deschedule(c *machine.Core, cur *Task) {
	id := c.ID()
	if cur.vc == nil {
		cur.saved = c.StealAllSuspended(cur.saved[:0])
	}
	cur.state = TaskReady
	cur.ran = 0
	k.pol.Requeue(id, cur)
	k.current[id] = nil
}

// blockCurrent takes the core's running task off the CPU without
// requeueing it.
func (k *Kernel) blockCurrent(c *machine.Core, t *Task) {
	t.state = TaskBlocked
	t.ran = 0
	k.pol.Block(c.ID(), t)
	if k.current[c.ID()] == t {
		k.current[c.ID()] = nil
	}
}

// requeueExited puts a task whose VCPU exited runnable back on a queue.
func (k *Kernel) requeueExited(id int, t *Task) {
	t.state = TaskReady
	t.ran = 0
	if k.current[id] == t {
		k.current[id] = nil
		k.pol.Requeue(id, t)
		return
	}
	k.pol.OnWake(t)
}

// VCPUExited implements hafnium.PrimaryOS: the RUN hypercall returned.
func (k *Kernel) VCPUExited(c *machine.Core, vc *hafnium.VCPU, reason hafnium.ExitReason) {
	t := k.Task(vc)
	if t == nil {
		return
	}
	id := c.ID()
	switch reason {
	case hafnium.ExitYield:
		k.requeueExited(id, t)
	case hafnium.ExitBlocked:
		if vc.State() == hafnium.VCPURunnable {
			// A wakeup raced the exit (doorbell or timer landed between
			// the guest blocking and this callback): keep the thread
			// runnable or the wakeup is lost.
			k.requeueExited(id, t)
			break
		}
		k.blockCurrent(c, t)
	case hafnium.ExitStopped, hafnium.ExitAborted:
		t.state = TaskDone
		t.ran = 0
		if k.current[id] == t {
			k.pol.Block(id, t)
			k.current[id] = nil
		} else {
			k.pol.Remove(t)
		}
	default:
		// An exit reason this kernel does not understand parks the thread
		// instead of taking the node down; VCPUReady revives it if the
		// VCPU becomes runnable again.
		k.blockCurrent(c, t)
	}
	k.schedule(c)
}

// VCPUReady implements hafnium.PrimaryOS: wake the VCPU's kernel thread.
func (k *Kernel) VCPUReady(vc *hafnium.VCPU) {
	t := k.Task(vc)
	if t == nil {
		return
	}
	switch t.state {
	case TaskDone:
		// A restarted VM reuses its VCPUs: revive the thread.
		t.state = TaskReady
		t.started = false
	case TaskBlocked, TaskReady:
		t.state = TaskReady
	default: // TaskRunning: already on a CPU.
		return
	}
	k.pol.OnWake(t)
	c := k.node.Cores[t.core]
	if k.current[t.core] == nil && c.Idle() {
		k.schedule(c)
	}
}

// CoreIdle implements hafnium.PrimaryOS.
func (k *Kernel) CoreIdle(c *machine.Core) { k.schedule(c) }

// schedule hands the core to the policy's next ready task.
func (k *Kernel) schedule(c *machine.Core) {
	id := c.ID()
	if !k.started || k.current[id] != nil {
		return
	}
	if c.Depth() != 0 {
		// Suspended handler frames unwind first; their completion paths
		// reschedule.
		return
	}
	for {
		t := k.pol.PickNext(id)
		if t == nil {
			return
		}
		if t.state != TaskReady {
			// A stale queue entry (its task blocked or died meanwhile).
			k.pol.Unpick(id, t)
			continue
		}
		k.current[id] = t
		t.state = TaskRunning
		switch {
		case t.vc != nil:
			if err := k.h.RunVCPU(c, t.vc); err != nil {
				k.blockCurrent(c, t)
				continue
			}
			return
		case t.spec != nil:
			k.runKthread(c, t)
			return
		default:
			k.runProcess(c, t)
			return
		}
	}
}

func (k *Kernel) runKthread(c *machine.Core, t *Task) {
	if len(t.saved) > 0 {
		frames := t.saved
		t.saved = frames[:0]
		c.RestoreStack(frames)
		return
	}
	k.pol.RunKthread(k, c, t)
}

func (k *Kernel) runProcess(c *machine.Core, t *Task) {
	if !t.started {
		t.started = true
		t.proc.Main(&procExec{core: c, done: func() {
			t.state = TaskDone
			k.pol.Block(c.ID(), t)
			if k.current[c.ID()] == t {
				k.current[c.ID()] = nil
			}
			k.schedule(c)
		}})
		return
	}
	if len(t.saved) > 0 {
		frames := t.saved
		t.saved = frames[:0]
		c.RestoreStack(frames)
	}
}

// procExec is the osapi.Executor the substrate hands to process tasks.
// The process always executes on its task's core.
type procExec struct {
	core *machine.Core
	done func()
}

func (e *procExec) Exec(label string, d sim.Duration, fn func()) {
	e.core.Exec(label, d, fn)
}

func (e *procExec) Run(a *machine.Activity) { e.core.Run(a) }

func (e *procExec) Now() sim.Time { return e.core.Node().Now() }

func (e *procExec) Done() { e.done() }
