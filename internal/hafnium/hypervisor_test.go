package hafnium

import (
	"testing"

	"khsim/internal/gic"
	"khsim/internal/machine"
	"khsim/internal/metrics"
	"khsim/internal/sim"
	"khsim/internal/timer"
)

func TestBootRequiresKernels(t *testing.T) {
	m, _ := ParseManifest(basicManifest)
	node := machine.MustNew(machine.PineA64Config(1))
	h, err := New(node, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Boot(); err == nil {
		t.Fatal("Boot without primary accepted")
	}
	h.AttachPrimary(&stubPrimary{t: t, h: h})
	if err := h.Boot(); err == nil {
		t.Fatal("Boot without guest kernel accepted")
	}
	if err := h.AttachGuest(VMID(99), &stubGuest{}); err == nil {
		t.Fatal("AttachGuest to unknown VM accepted")
	}
	if err := h.AttachGuest(PrimaryID, &stubGuest{}); err == nil {
		t.Fatal("AttachGuest to primary accepted")
	}
}

// TestHandToPrimaryBeforeBootOnly hands a secondary to the primary before
// boot, and checks that the primary VM, an unknown VM and any hand-over
// after boot are refused.
func TestHandToPrimaryBeforeBootOnly(t *testing.T) {
	m, _ := ParseManifest(basicManifest)
	node := machine.MustNew(machine.PineA64Config(1))
	h, err := New(node, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	job, _ := h.VMByName("job")
	if job.Controller() != SuperSecondaryID {
		t.Fatalf("default controller = %d, want the super-secondary's ID", job.Controller())
	}
	if err := h.HandToPrimary(job.ID()); err != nil || job.Controller() != PrimaryID {
		t.Fatalf("hand-over before boot: err %v, controller %d", err, job.Controller())
	}
	if h.HandToPrimary(PrimaryID) == nil || h.HandToPrimary(VMID(99)) == nil {
		t.Fatal("hand-over of the primary or of an unknown VM accepted")
	}
	h.AttachPrimary(&stubPrimary{t: t, h: h, node: node, handlerCost: sim.FromMicros(5)})
	if err := h.AttachGuest(job.ID(), &stubGuest{}); err != nil {
		t.Fatal(err)
	}
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	if h.HandToPrimary(job.ID()) == nil {
		t.Fatal("hand-over after boot accepted")
	}
}

func TestVMLayoutAndLookup(t *testing.T) {
	g := &stubGuest{workChunk: sim.FromMicros(10), chunks: 1}
	h, _ := buildTestSystem(t, basicManifest, map[string]GuestOS{"job": g})
	if h.Primary().ID() != PrimaryID || h.Primary().Class() != Primary {
		t.Fatal("primary identity wrong")
	}
	job, ok := h.VMByName("job")
	if !ok || job.ID() != FirstSecondaryID {
		t.Fatal("secondary ID wrong")
	}
	if _, ok := h.VM(VMID(77)); ok {
		t.Fatal("phantom VM")
	}
	if len(h.VMs()) != 2 {
		t.Fatal("VMs() wrong")
	}
	base, size := job.RAM()
	if base != GuestRAMBase || size != 128<<20 {
		t.Fatalf("RAM window %#x+%#x", base, size)
	}
	// Without a super-secondary, the primary owns the devices.
	if len(h.Primary().MMIO()) == 0 {
		t.Fatal("primary has no MMIO")
	}
	if len(job.MMIO()) != 0 {
		t.Fatal("secondary has MMIO")
	}
	// Frame ownership covers the whole RAM window.
	pa, err := job.TranslateIPA(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.FrameOwner(pa) != job.ID() {
		t.Fatal("frame owner wrong")
	}
}

func TestRunVCPUBootsAndGuestBlocks(t *testing.T) {
	g := &stubGuest{workChunk: sim.FromMicros(50), chunks: 2}
	h, p := buildTestSystem(t, basicManifest, map[string]GuestOS{"job": g})
	job, _ := h.VMByName("job")
	vc := job.VCPU(0)
	if err := h.RunVCPU(h.Node().Cores[0], vc); err != nil {
		t.Fatal(err)
	}
	h.Node().Engine.RunAll()
	if g.booted != 1 || g.completed != 2 {
		t.Fatalf("booted=%d completed=%d", g.booted, g.completed)
	}
	if len(p.exits) != 1 || p.exits[0] != ExitBlocked {
		t.Fatalf("exits = %v", p.exits)
	}
	if vc.State() != VCPUBlocked {
		t.Fatalf("vcpu state = %v", vc.State())
	}
	if h.Stats().Runs != 1 {
		t.Fatalf("runs = %d", h.Stats().Runs)
	}
}

func TestRunVCPUValidation(t *testing.T) {
	g := &stubGuest{workChunk: sim.FromMicros(1000), chunks: 1}
	h, _ := buildTestSystem(t, basicManifest, map[string]GuestOS{"job": g})
	c0 := h.Node().Cores[0]
	job, _ := h.VMByName("job")
	vc := job.VCPU(0)
	if err := h.RunVCPU(c0, nil); err == nil {
		t.Fatal("nil vcpu accepted")
	}
	if err := h.RunVCPU(c0, vc); err != nil {
		t.Fatal(err)
	}
	// Already resident on core 0; running it again anywhere is an error.
	if err := h.RunVCPU(h.Node().Cores[1], vc); err == nil {
		t.Fatal("double run accepted")
	}
	// From guest context (core 0 is in guest mode now).
	if err := h.RunVCPU(c0, vc); err == nil {
		t.Fatal("run from guest context accepted")
	}
}

func TestPrimaryTickWorldSwitchesGuestOut(t *testing.T) {
	g := &stubGuest{workChunk: sim.FromMicros(500), chunks: 1}
	h, p := buildTestSystem(t, basicManifest, map[string]GuestOS{"job": g})
	p.rerun = true
	node := h.Node()
	job, _ := h.VMByName("job")
	vc := job.VCPU(0)
	if err := h.RunVCPU(node.Cores[0], vc); err != nil {
		t.Fatal(err)
	}
	// Primary tick at 100us: guest must be switched out, the stub handler
	// runs, then reruns the guest, which completes its chunk and blocks.
	node.Timers.Core(0).Arm(timer.Phys, sim.Time(sim.FromMicros(100)))
	node.Engine.RunAll()
	if len(p.irqs) != 1 || p.irqs[0] != gic.IRQPhysTimer {
		t.Fatalf("primary irqs = %v", p.irqs)
	}
	if g.preempts != 1 || g.resumes != 1 {
		t.Fatalf("guest preempts=%d resumes=%d", g.preempts, g.resumes)
	}
	if g.completed != 1 {
		t.Fatal("guest chunk lost across world switch")
	}
	// Detour = trap + world switch out + handler + run entry (incl refill).
	costs := node.Costs
	minDetour := 2*(costs.HypTrap+costs.WorldSwitch) + p.handlerCost
	if g.stolenTot < minDetour {
		t.Fatalf("stolen %v < floor %v", g.stolenTot, minDetour)
	}
	if h.Stats().WorldSwitches < 3 { // run-in, switch-out, run-in
		t.Fatalf("world switches = %d", h.Stats().WorldSwitches)
	}
}

func TestGuestVTimerInjectedWithoutWorldSwitch(t *testing.T) {
	g := &stubGuest{workChunk: sim.FromMicros(500), chunks: 1,
		handlerCost: sim.FromMicros(3), armTimer: sim.FromMicros(100)}
	h, p := buildTestSystem(t, basicManifest, map[string]GuestOS{"job": g})
	node := h.Node()
	job, _ := h.VMByName("job")
	if err := h.RunVCPU(node.Cores[0], job.VCPU(0)); err != nil {
		t.Fatal(err)
	}
	before := h.Stats().WorldSwitches
	node.Engine.RunAll()
	// 4 timer fires fit in 500us of work (100,200,300,400 + handler time).
	if len(g.virqs) < 3 {
		t.Fatalf("virqs = %v", g.virqs)
	}
	for _, v := range g.virqs {
		if v != gic.IRQVirtualTimer {
			t.Fatalf("unexpected virq %d", v)
		}
	}
	if len(p.irqs) != 0 {
		t.Fatalf("primary saw %v for a guest timer", p.irqs)
	}
	// Only the final block exit world-switches.
	if h.Stats().WorldSwitches != before+1 {
		t.Fatalf("world switches grew by %d", h.Stats().WorldSwitches-before)
	}
	if h.Stats().Injections < 3 {
		t.Fatalf("injections = %d", h.Stats().Injections)
	}
}

func TestVTimerWhileDescheduledMakesVCPUReady(t *testing.T) {
	// Guest arms a 200us timer then blocks after 50us of work; the timer
	// fires while descheduled and must surface as VCPUReady + pending virq.
	g := &stubGuest{workChunk: sim.FromMicros(50), chunks: 1, armTimer: sim.FromMicros(200)}
	h, p := buildTestSystem(t, basicManifest, map[string]GuestOS{"job": g})
	node := h.Node()
	job, _ := h.VMByName("job")
	vc := job.VCPU(0)
	if err := h.RunVCPU(node.Cores[0], vc); err != nil {
		t.Fatal(err)
	}
	node.Engine.RunAll()
	if len(p.readies) != 1 || p.readies[0] != vc {
		t.Fatalf("readies = %v", p.readies)
	}
	if vc.State() != VCPURunnable {
		t.Fatalf("state = %v", vc.State())
	}
	if got := vc.PendingVIRQs(); len(got) != 1 || got[0] != gic.IRQVirtualTimer {
		t.Fatalf("pending = %v", got)
	}
	// Running it again delivers the pending tick.
	if err := h.RunVCPU(node.Cores[0], vc); err != nil {
		t.Fatal(err)
	}
	node.Engine.RunAll()
	if len(g.virqs) != 1 || g.virqs[0] != gic.IRQVirtualTimer {
		t.Fatalf("virqs = %v", g.virqs)
	}
}

func TestYieldLeavesRunnable(t *testing.T) {
	g := &stubGuest{workChunk: sim.FromMicros(10), chunks: 1, exit: ExitYield}
	h, p := buildTestSystem(t, basicManifest, map[string]GuestOS{"job": g})
	job, _ := h.VMByName("job")
	vc := job.VCPU(0)
	h.RunVCPU(h.Node().Cores[0], vc)
	h.Node().Engine.RunAll()
	if len(p.exits) != 1 || p.exits[0] != ExitYield {
		t.Fatalf("exits = %v", p.exits)
	}
	if vc.State() != VCPURunnable {
		t.Fatalf("state = %v", vc.State())
	}
}

func TestStopAndRestartVM(t *testing.T) {
	g := &stubGuest{workChunk: sim.FromMicros(10000), chunks: 100}
	h, p := buildTestSystem(t, basicManifest, map[string]GuestOS{"job": g})
	node := h.Node()
	job, _ := h.VMByName("job")
	vc := job.VCPU(0)
	h.RunVCPU(node.Cores[0], vc)
	node.Engine.Run(sim.Time(sim.FromMicros(50)))
	// Stop from "another core" (engine context): kicks the resident core.
	if err := h.StopVM(job.ID()); err != nil {
		t.Fatal(err)
	}
	node.Engine.RunAll()
	if job.State() != VMStopped {
		t.Fatalf("vm state = %v", job.State())
	}
	if vc.State() != VCPUStopped {
		t.Fatalf("vcpu state = %v", vc.State())
	}
	if len(p.exits) != 1 || p.exits[0] != ExitStopped {
		t.Fatalf("exits = %v", p.exits)
	}
	if err := h.StopVM(job.ID()); err == nil {
		t.Fatal("double stop accepted")
	}
	if err := h.StopVM(PrimaryID); err == nil {
		t.Fatal("stopping primary accepted")
	}
	if err := h.RunVCPU(node.Cores[0], vc); err == nil {
		t.Fatal("running stopped vcpu accepted")
	}
	// Restart boots fresh.
	if err := h.RestartVM(job.ID()); err != nil {
		t.Fatal(err)
	}
	if err := h.RestartVM(job.ID()); err == nil {
		t.Fatal("double restart accepted")
	}
	h.RunVCPU(node.Cores[0], vc)
	node.Engine.Run(node.Now().Add(sim.FromMicros(100)))
	if g.booted != 2 {
		t.Fatalf("booted = %d after restart", g.booted)
	}
}

func TestGuestAbortNotifiesPrimary(t *testing.T) {
	g := &stubGuest{workChunk: sim.FromMicros(10), chunks: 1}
	h, p := buildTestSystem(t, basicManifest, map[string]GuestOS{"job": g})
	job, _ := h.VMByName("job")
	vc := job.VCPU(0)
	// Replace the guest's completion with an abort.
	g2 := &abortingGuest{}
	h.AttachGuest(job.ID(), g2)
	h.RunVCPU(h.Node().Cores[0], vc)
	h.Node().Engine.RunAll()
	if len(p.exits) != 1 || p.exits[0] != ExitAborted {
		t.Fatalf("exits = %v", p.exits)
	}
	if job.State() != VMAborted {
		t.Fatalf("vm state = %v", job.State())
	}
	if h.Stats().Aborts != 1 {
		t.Fatal("abort not counted")
	}
	_ = g
}

type abortingGuest struct{}

func (a *abortingGuest) Boot(vc *VCPU) {
	vc.Exec("bad", sim.FromMicros(5), func() { vc.Abort() })
}
func (a *abortingGuest) HandleVIRQ(vc *VCPU, virq int) {}

func TestStage2AbortOnUnmappedIPA(t *testing.T) {
	g := &stubGuest{workChunk: sim.FromMicros(10), chunks: 1}
	h, _ := buildTestSystem(t, basicManifest, map[string]GuestOS{"job": g})
	job, _ := h.VMByName("job")
	if _, err := job.TranslateIPA(0xdead_beef_000, 0); err == nil {
		t.Fatal("unmapped IPA translated")
	}
	// Write permission is granted on RAM.
	base, _ := job.RAM()
	if _, err := job.TranslateIPA(base, 4); err != nil { // PermX=4
		t.Fatal(err)
	}
}

func TestMailboxSuperToPrimary(t *testing.T) {
	manifest := basicManifest + `
[vm login]
class = super-secondary
vcpus = 1
memory_mb = 64
`
	login := &stubGuest{workChunk: sim.FromMicros(5), chunks: 1}
	job := &stubGuest{workChunk: sim.FromMicros(5), chunks: 1}
	h, p := buildTestSystem(t, manifest, map[string]GuestOS{"login": login, "job": job})
	node := h.Node()
	super := h.Super()
	if super == nil || super.ID() != SuperSecondaryID {
		t.Fatal("super-secondary missing")
	}
	// With a super-secondary, devices belong to it, not the primary.
	if len(super.MMIO()) == 0 || len(h.Primary().MMIO()) != 0 {
		t.Fatal("MMIO routing wrong")
	}
	// Boot the login VM; inside, send a job-control message to the primary.
	sender := &messagingGuest{to: PrimaryID, payload: []byte("launch job")}
	h.AttachGuest(super.ID(), sender)
	h.RunVCPU(node.Cores[1], super.VCPU(0))
	node.Engine.RunAll()
	if sender.sendErr != nil {
		t.Fatal(sender.sendErr)
	}
	// The primary received the mailbox SGI on core 0.
	found := false
	for _, irq := range p.irqs {
		if irq == VIRQMailbox {
			found = true
		}
	}
	if !found {
		t.Fatalf("primary irqs = %v, no mailbox SGI", p.irqs)
	}
	msg, err := h.RecvForPrimary()
	if err != nil {
		t.Fatal(err)
	}
	if msg.From != SuperSecondaryID || string(msg.Payload) != "launch job" {
		t.Fatalf("msg = %+v", msg)
	}
	if _, err := h.RecvForPrimary(); err == nil {
		t.Fatal("double recv accepted")
	}
}

type messagingGuest struct {
	to      VMID
	payload []byte
	sendErr error
	got     []Message
}

func (m *messagingGuest) Boot(vc *VCPU) {
	vc.Exec("send", sim.FromMicros(2), func() {
		m.sendErr = vc.SendMessage(m.to, m.payload)
		vc.Block()
	})
}

func (m *messagingGuest) HandleVIRQ(vc *VCPU, virq int) {
	if virq == VIRQMailbox {
		if msg, err := vc.ReceiveMessage(); err == nil {
			m.got = append(m.got, msg)
		}
	}
	vc.Exec("virq", sim.FromMicros(1), nil)
}

func TestMailboxPrimaryToGuestAndDenials(t *testing.T) {
	manifest := basicManifest + `
[vm login]
class = super-secondary
vcpus = 1
memory_mb = 64
`
	job := &messagingGuest{to: SuperSecondaryID, payload: []byte("hi")} // denied pair
	login := &messagingGuest{}
	h, p := buildTestSystem(t, manifest, map[string]GuestOS{"job": job, "login": login})
	p.runOnReady = true
	node := h.Node()
	// Secondary → super-secondary must be denied.
	jobVM, _ := h.VMByName("job")
	h.RunVCPU(node.Cores[0], jobVM.VCPU(0))
	node.Engine.RunAll()
	if job.sendErr != ErrDenied {
		t.Fatalf("secondary→super err = %v, want ErrDenied", job.sendErr)
	}
	// Primary → super-secondary delivers a virq and wakes the VM.
	if err := h.SendFromPrimary(SuperSecondaryID, []byte("job done")); err != nil {
		t.Fatal(err)
	}
	// The login VCPU becomes ready; run it so it picks up the message.
	super := h.Super()
	h.RunVCPU(node.Cores[1], super.VCPU(0))
	node.Engine.RunAll()
	if len(login.got) != 1 || string(login.got[0].Payload) != "job done" {
		t.Fatalf("login got %v", login.got)
	}
	// Mailbox busy: two unconsumed sends fail.
	if err := h.SendFromPrimary(SuperSecondaryID, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := h.SendFromPrimary(SuperSecondaryID, []byte("b")); err != ErrBusy {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	if err := h.SendFromPrimary(VMID(99), nil); err != ErrBadVM {
		t.Fatalf("err = %v, want ErrBadVM", err)
	}
}

func TestDeviceIRQForwardViaPrimary(t *testing.T) {
	manifest := `
[vm primary]
class = primary
vcpus = 4
memory_mb = 128

[vm login]
class = super-secondary
vcpus = 1
memory_mb = 64
`
	login := &stubGuest{workChunk: sim.FromMicros(1000), chunks: 1, handlerCost: sim.FromMicros(2)}
	h, p := buildTestSystem(t, manifest, map[string]GuestOS{"login": login})
	node := h.Node()
	super := h.Super()
	h.RunVCPU(node.Cores[1], super.VCPU(0))
	node.Engine.Run(sim.Time(sim.FromMicros(10)))
	// A device SPI (e.g. 40 = disk) fires, routed to the primary on core 0.
	const diskIRQ = 40
	node.GIC.Enable(diskIRQ)
	node.GIC.Route(diskIRQ, 0)
	node.GIC.RaiseSPI(diskIRQ)
	node.Engine.Run(sim.Time(sim.FromMicros(20)))
	if len(p.irqs) == 0 || p.irqs[0] != diskIRQ {
		t.Fatalf("primary irqs = %v", p.irqs)
	}
	// Primary forwards it to the login VM (resident on core 1 → kick).
	if err := h.InjectDeviceIRQ(SuperSecondaryID, diskIRQ); err != nil {
		t.Fatal(err)
	}
	node.Engine.RunAll()
	if len(login.virqs) != 1 || login.virqs[0] != diskIRQ {
		t.Fatalf("login virqs = %v", login.virqs)
	}
	if h.Stats().Forwards != 1 || h.Stats().Kicks == 0 {
		t.Fatalf("stats = %+v", h.Stats())
	}
	// Injection into the primary or an unknown VM is rejected.
	if err := h.InjectDeviceIRQ(PrimaryID, diskIRQ); err == nil {
		t.Fatal("inject into primary accepted")
	}
	if err := h.InjectDeviceIRQ(VMID(50), diskIRQ); err != ErrBadVM {
		t.Fatal("inject into phantom accepted")
	}
}

func TestDeviceIRQSelectiveRouting(t *testing.T) {
	manifest := `
routing = selective

[vm primary]
class = primary
vcpus = 4
memory_mb = 128

[vm login]
class = super-secondary
vcpus = 1
memory_mb = 64
`
	login := &stubGuest{workChunk: sim.FromMicros(1000), chunks: 1, handlerCost: sim.FromMicros(2)}
	h, p := buildTestSystem(t, manifest, map[string]GuestOS{"login": login})
	node := h.Node()
	super := h.Super()
	h.RunVCPU(node.Cores[1], super.VCPU(0))
	node.Engine.Run(sim.Time(sim.FromMicros(10)))
	// Device SPI routed to core 1 where the login VM is resident: it must
	// be injected directly, with no primary involvement.
	const nicIRQ = 41
	node.GIC.Enable(nicIRQ)
	node.GIC.Route(nicIRQ, 1)
	before := h.Stats().WorldSwitches
	node.GIC.RaiseSPI(nicIRQ)
	node.Engine.RunAll()
	if len(login.virqs) != 1 || login.virqs[0] != nicIRQ {
		t.Fatalf("login virqs = %v", login.virqs)
	}
	for _, irq := range p.irqs {
		if irq == nicIRQ {
			t.Fatal("selective routing went through the primary")
		}
	}
	// No extra world switch for the delivery itself (just the final block).
	if h.Stats().WorldSwitches > before+1 {
		t.Fatalf("world switches grew by %d", h.Stats().WorldSwitches-before)
	}
}

func TestRefillCostPoliciesDiffer(t *testing.T) {
	run := func(tlb string, evict int) sim.Duration {
		manifest := "tlb = " + tlb + "\n" + basicManifest
		g := &stubGuest{workChunk: sim.FromMicros(100), chunks: 1}
		h, p := buildTestSystem(t, manifest, map[string]GuestOS{"job": g})
		p.evict = evict
		job, _ := h.VMByName("job")
		h.RunVCPU(h.Node().Cores[0], job.VCPU(0))
		h.Node().Engine.RunAll()
		return sim.Duration(h.Node().Now())
	}
	flushAll := run("flush-all", 16)
	tagged := run("vmid-tagged", 16)
	if flushAll <= tagged {
		t.Fatalf("flush-all (%v) should cost more than vmid-tagged (%v)", flushAll, tagged)
	}
}

// TestHypercallCountersLazyAndAllocFree pins the cached EL2 counters: a
// hypercall series appears in the registry only once the VM has made
// that call, each kind publishes under the name the string-keyed lookup
// used to build, and a warm counter bump allocates nothing.
func TestHypercallCountersLazyAndAllocFree(t *testing.T) {
	g := &stubGuest{workChunk: sim.FromMicros(10), chunks: 1}
	h, _ := buildTestSystem(t, basicManifest, map[string]GuestOS{"job": g})
	job, _ := h.VMByName("job")
	mx := h.Node().Metrics
	key := metrics.K("el2", "hypercall.msg_send").WithVM("job")
	if _, ok := mx.Snapshot().Counter(key); ok {
		t.Fatal("hypercall series registered before the first call")
	}
	h.hypercall(hcMsgSend, job)
	if v, ok := mx.Snapshot().Counter(key); !ok || v != 1 {
		t.Fatalf("after one call: %s = %d (registered %v), want 1", key, v, ok)
	}
	if n := testing.AllocsPerRun(100, func() { h.hypercall(hcMsgSend, job) }); n != 0 {
		t.Fatalf("warm hypercall counter bump allocates %v objects", n)
	}
	for _, k := range []ShareKind{MemShare, MemLend, MemDonate, ShareKind(7)} {
		if got, want := hcNames[k.hypercall()], "hypercall.mem_"+k.String(); got != want {
			t.Errorf("%v publishes as %q, want %q", k, got, want)
		}
	}
	for k, name := range hcNames {
		if name == "" {
			t.Errorf("hypercall kind %d has no counter name", k)
		}
	}
}
