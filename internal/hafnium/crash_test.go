package hafnium

import (
	"testing"

	"khsim/internal/machine"
	"khsim/internal/mem"
	"khsim/internal/metrics"
	"khsim/internal/mmu"
	"khsim/internal/sim"
)

const twoSecondaryManifest = `
[vm primary]
class = primary
vcpus = 4
memory_mb = 128

[vm victim]
class = secondary
vcpus = 1
memory_mb = 64

[vm peer]
class = secondary
vcpus = 1
memory_mb = 64
`

// TestCrashRevokesGrantsNoDanglingOwners is the mem-share leak check: a
// secondary crashing mid-grant must leave no active shares and no frame
// reachable without ownership — in both directions (it was lender and
// receiver at the moment of death).
func TestCrashRevokesGrantsNoDanglingOwners(t *testing.T) {
	h, _ := buildTestSystem(t, twoSecondaryManifest, map[string]GuestOS{
		"victim": &stubGuest{workChunk: sim.FromMicros(5), chunks: 1},
		"peer":   &stubGuest{workChunk: sim.FromMicros(5), chunks: 1},
	})
	victim, _ := h.VMByName("victim")
	peer, _ := h.VMByName("peer")

	// Victim lends a page out and shares a page out; peer lends a page in.
	if _, _, err := h.ShareMemory(MemLend, victim.ID(), peer.ID(), GuestRAMBase, mem.PageSize, mmu.PermRW); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.ShareMemory(MemShare, victim.ID(), peer.ID(), GuestRAMBase+mem.PageSize, mem.PageSize, mmu.PermR); err != nil {
		t.Fatal(err)
	}
	inIPA, _, err := h.ShareMemory(MemLend, peer.ID(), victim.ID(), GuestRAMBase, mem.PageSize, mmu.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.VerifyIsolation(); err != nil {
		t.Fatal(err)
	}

	if err := h.InjectVMFault(victim.ID(), "test crash mid-share"); err != nil {
		t.Fatal(err)
	}
	h.Node().Engine.RunAll()

	if victim.State() != VMCrashed {
		t.Fatalf("victim state = %v", victim.State())
	}
	if got := h.Grants(victim.ID()); len(got) != 0 {
		t.Fatalf("victim still party to %d active grants", len(got))
	}
	// The peer must have lost its windows into victim-owned frames, and
	// must have regained the mapping it lent to the victim.
	if _, err := victim.TranslateIPA(inIPA, mmu.PermR); err == nil {
		t.Fatal("crashed victim still maps the page lent to it")
	}
	if _, err := peer.TranslateIPA(GuestRAMBase, mmu.PermR); err != nil {
		t.Fatalf("peer's lent-out mapping not restored: %v", err)
	}
	// Ownership did not dangle: victim's frames are still victim's.
	pa, perr := peer.TranslateIPA(GuestRAMBase, mmu.PermR)
	if perr != nil {
		t.Fatal(perr)
	}
	if h.FrameOwner(pa) != peer.ID() {
		t.Fatalf("peer frame owned by VM %d", h.FrameOwner(pa))
	}
	if err := h.VerifyIsolation(); err != nil {
		t.Fatalf("isolation violated after crash: %v", err)
	}
	if st := h.Stats(); st.ScrubbedPages == 0 {
		t.Fatal("no pages scrubbed during grant revocation")
	}
	if peer.State() != VMRunning {
		t.Fatalf("peer state = %v, sibling must survive", peer.State())
	}
}

// restartPrimary is a stubPrimary that immediately re-runs VCPUs that
// become ready on an idle core 0 — the minimal scheduler loop a watchdog
// restart needs.
type restartPrimary struct {
	*stubPrimary
}

func (p *restartPrimary) VCPUReady(vc *VCPU) {
	p.stubPrimary.VCPUReady(vc)
	c := p.node.Cores[0]
	if vc.State() == VCPURunnable && p.h.Resident(0) == nil && c.Idle() {
		if err := p.h.RunVCPU(c, vc); err != nil {
			p.t.Errorf("restart run: %v", err)
		}
	}
}

// buildRestartSystem is buildTestSystem with the restart-capable primary.
func buildRestartSystem(t *testing.T, manifest string, guests map[string]GuestOS) (*Hypervisor, *restartPrimary) {
	t.Helper()
	m, err := ParseManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	node := machine.MustNew(machine.PineA64Config(42))
	h, err := New(node, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := &restartPrimary{&stubPrimary{t: t, h: h, node: node, handlerCost: sim.FromMicros(5), evict: 16}}
	h.AttachPrimary(p)
	for name, g := range guests {
		vm, ok := h.VMByName(name)
		if !ok {
			t.Fatalf("no VM %q", name)
		}
		if err := h.AttachGuest(vm.ID(), g); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	return h, p
}

const watchdogManifest = `
[vm primary]
class = primary
vcpus = 4
memory_mb = 128

[vm job]
class = secondary
vcpus = 1
memory_mb = 64
restart_policy = restart
max_restarts = 2
quarantine = true
restart_backoff_us = 100
`

// TestWatchdogRestartBudgetAndQuarantine drives a guest that panics on
// every boot through the full policy: two restarts, then quarantine.
func TestWatchdogRestartBudgetAndQuarantine(t *testing.T) {
	g := &abortingGuest{}
	h, p := buildRestartSystem(t, watchdogManifest, map[string]GuestOS{"job": g})
	job, _ := h.VMByName("job")
	if err := h.RunVCPU(h.Node().Cores[0], job.VCPU(0)); err != nil {
		t.Fatal(err)
	}
	h.Node().Engine.RunAll()

	st := h.Stats()
	if st.Aborts != 3 {
		t.Fatalf("Aborts = %d, want 3 (initial + 2 restarted boots)", st.Aborts)
	}
	if st.Restarts != 2 {
		t.Fatalf("Restarts = %d, want 2", st.Restarts)
	}
	if st.Quarantines != 1 {
		t.Fatalf("Quarantines = %d, want 1", st.Quarantines)
	}
	if job.State() != VMQuarantined {
		t.Fatalf("state = %v, want quarantined", job.State())
	}
	if job.Restarts() != 2 {
		t.Fatalf("vm restarts = %d", job.Restarts())
	}
	if job.CrashReason() == "" {
		t.Fatal("no crash reason recorded")
	}
	// Each crash produced an aborted exit back to the primary.
	aborted := 0
	for _, r := range p.exits {
		if r == ExitAborted {
			aborted++
		}
	}
	if aborted != 3 {
		t.Fatalf("aborted exits = %d, want 3 (%v)", aborted, p.exits)
	}
	// Restart scrubs the whole RAM image each time.
	wantScrub := uint64(2) * uint64(job.Spec().MemMB) << 20 / mem.PageSize
	if st.ScrubbedPages < wantScrub {
		t.Fatalf("ScrubbedPages = %d, want >= %d", st.ScrubbedPages, wantScrub)
	}
}

// recoveringGuest aborts on its first boot only, then runs clean.
type recoveringGuest struct {
	stubGuest
	boots int
}

func (g *recoveringGuest) Boot(vc *VCPU) {
	g.boots++
	if g.boots == 1 {
		vc.Exec("bad", sim.FromMicros(5), func() { vc.Abort() })
		return
	}
	g.stubGuest.Boot(vc)
}

// TestWatchdogRecoversTransientCrash: one crash, one restart, then the
// guest completes its work normally and the VM stays in service.
func TestWatchdogRecoversTransientCrash(t *testing.T) {
	g := &recoveringGuest{stubGuest: stubGuest{workChunk: sim.FromMicros(10), chunks: 3}}
	h, _ := buildRestartSystem(t, watchdogManifest, map[string]GuestOS{"job": g})
	job, _ := h.VMByName("job")
	if err := h.RunVCPU(h.Node().Cores[0], job.VCPU(0)); err != nil {
		t.Fatal(err)
	}
	h.Node().Engine.RunAll()
	if job.State() != VMRunning {
		t.Fatalf("state = %v, want running after recovery", job.State())
	}
	if g.boots != 2 {
		t.Fatalf("boots = %d, want 2", g.boots)
	}
	if g.completed != 3 {
		t.Fatalf("completed chunks = %d, want 3", g.completed)
	}
	st := h.Stats()
	if st.Aborts != 1 || st.Restarts != 1 || st.Quarantines != 0 {
		t.Fatalf("stats = aborts %d restarts %d quarantines %d", st.Aborts, st.Restarts, st.Quarantines)
	}
}

const quarantineNowManifest = `
[vm primary]
class = primary
vcpus = 4
memory_mb = 128

[vm job]
class = secondary
vcpus = 1
memory_mb = 64
quarantine = true
`

// TestQuarantineWithoutRestartPolicy: quarantine = true with the default
// restart_policy sends a crashed VM straight to quarantine.
func TestQuarantineWithoutRestartPolicy(t *testing.T) {
	h, _ := buildTestSystem(t, quarantineNowManifest, map[string]GuestOS{"job": &abortingGuest{}})
	job, _ := h.VMByName("job")
	h.RunVCPU(h.Node().Cores[0], job.VCPU(0))
	h.Node().Engine.RunAll()
	if job.State() != VMQuarantined {
		t.Fatalf("state = %v, want quarantined", job.State())
	}
	st := h.Stats()
	if st.Aborts != 1 || st.Quarantines != 1 || st.Restarts != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// yieldInHandlerGuest misbehaves by yielding from inside an interrupt
// handler while its main activity is still suspended.
type yieldInHandlerGuest struct {
	booted int
}

func (g *yieldInHandlerGuest) Boot(vc *VCPU) {
	g.booted++
	vc.ArmVTimerAfter(sim.FromMicros(20))
	vc.Run(&machine.Activity{Label: "guest.work", Remaining: sim.FromMicros(500)})
}

func (g *yieldInHandlerGuest) HandleVIRQ(vc *VCPU, virq int) {
	vc.Yield() // illegal: guest work is suspended beneath this handler
}

// badExitGuest reports an exit reason the hypercall ABI does not define.
type badExitGuest struct{}

func (g *badExitGuest) Boot(vc *VCPU) {
	vc.vm.hyp.guestExit(vc, ExitReason(99))
}
func (g *badExitGuest) HandleVIRQ(vc *VCPU, virq int) {}

// TestAbortsCountedOnEveryPath pins Stats.Aborts (and BadHypercalls) to
// each distinct abort path: guest Abort, injected fault, exit with
// suspended work, invalid exit reason, and non-resident hypercall. Each
// misuse path also counts once in the VM's el2.bad_hypercalls series.
func TestAbortsCountedOnEveryPath(t *testing.T) {
	badHypercallSeries := func(t *testing.T, h *Hypervisor) {
		t.Helper()
		k := metrics.K("el2", "bad_hypercalls").WithVM("job")
		if v, ok := h.Node().SnapshotMetrics().Counter(k); !ok || v != 1 {
			t.Fatalf("%s = %d (present %v), want 1", k, v, ok)
		}
	}
	t.Run("guest-abort", func(t *testing.T) {
		h, _ := buildTestSystem(t, basicManifest, map[string]GuestOS{"job": &abortingGuest{}})
		job, _ := h.VMByName("job")
		h.RunVCPU(h.Node().Cores[0], job.VCPU(0))
		h.Node().Engine.RunAll()
		if st := h.Stats(); st.Aborts != 1 {
			t.Fatalf("Aborts = %d", st.Aborts)
		}
	})
	t.Run("injected-fault", func(t *testing.T) {
		g := &stubGuest{workChunk: sim.FromMicros(5), chunks: 1}
		h, _ := buildTestSystem(t, basicManifest, map[string]GuestOS{"job": g})
		job, _ := h.VMByName("job")
		if err := h.InjectVMFault(job.ID(), "test"); err != nil {
			t.Fatal(err)
		}
		if st := h.Stats(); st.Aborts != 1 {
			t.Fatalf("Aborts = %d", st.Aborts)
		}
		// Idempotent: a second fault on a dead VM is refused, not counted.
		if err := h.InjectVMFault(job.ID(), "again"); err != ErrNotRunning {
			t.Fatalf("second fault: %v", err)
		}
		if st := h.Stats(); st.Aborts != 1 {
			t.Fatalf("Aborts after refused fault = %d", st.Aborts)
		}
	})
	t.Run("exit-with-suspended-work", func(t *testing.T) {
		g := &yieldInHandlerGuest{}
		h, p := buildTestSystem(t, basicManifest, map[string]GuestOS{"job": g})
		job, _ := h.VMByName("job")
		h.RunVCPU(h.Node().Cores[0], job.VCPU(0))
		h.Node().Engine.RunAll()
		if job.State() != VMCrashed {
			t.Fatalf("state = %v", job.State())
		}
		st := h.Stats()
		if st.Aborts != 1 || st.BadHypercalls != 1 {
			t.Fatalf("aborts %d badhypercalls %d", st.Aborts, st.BadHypercalls)
		}
		badHypercallSeries(t, h)
		if len(p.exits) != 1 || p.exits[0] != ExitAborted {
			t.Fatalf("exits = %v", p.exits)
		}
	})
	t.Run("invalid-exit-reason", func(t *testing.T) {
		h, p := buildTestSystem(t, basicManifest, map[string]GuestOS{"job": &badExitGuest{}})
		job, _ := h.VMByName("job")
		h.RunVCPU(h.Node().Cores[0], job.VCPU(0))
		h.Node().Engine.RunAll()
		if job.State() != VMCrashed {
			t.Fatalf("state = %v", job.State())
		}
		st := h.Stats()
		if st.Aborts != 1 || st.BadHypercalls != 1 {
			t.Fatalf("aborts %d badhypercalls %d", st.Aborts, st.BadHypercalls)
		}
		badHypercallSeries(t, h)
		if len(p.exits) != 1 || p.exits[0] != ExitAborted {
			t.Fatalf("exits = %v", p.exits)
		}
	})
	t.Run("non-resident-hypercall", func(t *testing.T) {
		g := &stubGuest{workChunk: sim.FromMicros(5), chunks: 1}
		h, _ := buildTestSystem(t, basicManifest, map[string]GuestOS{"job": g})
		job, _ := h.VMByName("job")
		job.VCPU(0).Exec("rogue", sim.FromMicros(1), nil) // never resident
		if job.State() != VMCrashed {
			t.Fatalf("state = %v", job.State())
		}
		st := h.Stats()
		if st.Aborts != 1 || st.BadHypercalls != 1 {
			t.Fatalf("aborts %d badhypercalls %d", st.Aborts, st.BadHypercalls)
		}
		badHypercallSeries(t, h)
	})
}

// TestCrashedVMDeniedService: every hypercall that would touch a crashed
// VM is refused with a typed error, and siblings keep running.
func TestCrashedVMDeniedService(t *testing.T) {
	peerGuest := &stubGuest{workChunk: sim.FromMicros(20), chunks: 4, exit: ExitYield}
	h, p := buildTestSystem(t, twoSecondaryManifest, map[string]GuestOS{
		"victim": &abortingGuest{},
		"peer":   peerGuest,
	})
	p.rerun = true
	victim, _ := h.VMByName("victim")
	peer, _ := h.VMByName("peer")
	h.RunVCPU(h.Node().Cores[0], victim.VCPU(0))
	h.RunVCPU(h.Node().Cores[1], peer.VCPU(0))
	h.Node().Engine.RunAll()

	if victim.State() != VMCrashed {
		t.Fatalf("victim = %v", victim.State())
	}
	if err := h.RunVCPU(h.Node().Cores[0], victim.VCPU(0)); err != ErrNotRunning {
		t.Fatalf("RunVCPU on crashed VM: %v", err)
	}
	if err := h.StopVM(victim.ID()); err != ErrNotRunning {
		t.Fatalf("StopVM on crashed VM: %v", err)
	}
	if err := h.RestartVM(victim.ID()); err == nil {
		t.Fatal("manual RestartVM of crashed VM accepted")
	}
	if err := h.SendFromPrimary(victim.ID(), []byte("hi")); err != ErrNotRunning {
		t.Fatalf("msgSend to crashed VM: %v", err)
	}
	// The sibling ran to completion, undisturbed.
	if peer.State() != VMRunning {
		t.Fatalf("peer = %v", peer.State())
	}
	if peerGuest.completed != 4 {
		t.Fatalf("peer completed %d chunks", peerGuest.completed)
	}
}

// TestCrashDrainsPendingVirqsAndMailbox: queued interrupts and mailbox
// contents die with the VM and do not resurface after restart.
func TestCrashDrainsPendingVirqsAndMailbox(t *testing.T) {
	g := &stubGuest{workChunk: sim.FromMicros(10), chunks: 1}
	h, _ := buildTestSystem(t, watchdogManifest, map[string]GuestOS{"job": g})
	job, _ := h.VMByName("job")
	vc := job.VCPU(0)
	// Queue state while the VCPU is descheduled, then crash it.
	if err := h.SendFromPrimary(job.ID(), []byte("stale")); err != nil {
		t.Fatal(err)
	}
	if len(vc.PendingVIRQs()) == 0 {
		t.Fatal("mailbox send did not pend a virq")
	}
	if err := h.InjectVMFault(job.ID(), "test"); err != nil {
		t.Fatal(err)
	}
	if len(vc.PendingVIRQs()) != 0 {
		t.Fatalf("pending virqs survived the crash: %v", vc.PendingVIRQs())
	}
	// The watchdog restart scrubs the VM back to service with an empty
	// mailbox and no queued interrupts.
	h.Node().Engine.RunAll()
	if job.State() != VMRunning {
		t.Fatalf("state = %v", job.State())
	}
	if len(vc.PendingVIRQs()) != 0 {
		t.Fatalf("virqs reappeared after restart: %v", vc.PendingVIRQs())
	}
	if _, err := h.msgRecv(job.ID()); err != ErrEmpty {
		t.Fatalf("stale mailbox message survived restart: %v", err)
	}
}
