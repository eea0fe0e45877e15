// Package core assembles the paper's system: a trusted-boot ARM64 node
// running the Hafnium secure partition manager with a lightweight-kernel
// (Kitten) primary VM replacing Linux as the node-level VM scheduler,
// plus the super-secondary login VM extension and the future-work signed
// VM-image launch path.
//
// This is the integration the paper contributes; everything underneath
// (machine, mmu, gic, timers, tz, boot, hafnium, kitten, linuxos) is a
// substrate package.
package core

import (
	"crypto/ed25519"
	"fmt"

	"khsim/internal/boot"
	"khsim/internal/hafnium"
	"khsim/internal/kitten"
	"khsim/internal/linuxos"
	"khsim/internal/machine"
	"khsim/internal/sim"
	"khsim/internal/tz"
)

// Scheduler selects the primary (scheduling) VM's kernel.
type Scheduler int

// Primary-kernel choices: the paper's contribution vs the baseline.
const (
	SchedulerKitten Scheduler = iota
	SchedulerLinux
)

// String names the primary kernel: "linux" for SchedulerLinux and
// "kitten" otherwise.
func (s Scheduler) String() string {
	if s == SchedulerLinux {
		return "linux"
	}
	return "kitten"
}

// Options configure a secure node.
type Options struct {
	// Seed drives all simulation randomness.
	Seed uint64
	// Manifest is the Hafnium partition plan (text form; see
	// hafnium.ParseManifest).
	Manifest string
	// Scheduler picks the primary kernel.
	Scheduler Scheduler
	// Kitten / Linux parameterize whichever primary is selected (zero
	// values mean defaults). Kitten params also configure Kitten guests
	// created through AttachWorkload.
	Kitten kitten.Params
	Linux  linuxos.Params
	// DynamicPartitioning enables the §VII future-work TrustZone
	// extension (runtime secure-region create/free).
	DynamicPartitioning bool
	// RootKey, if set, is provisioned into the boot chain and enables
	// LaunchSignedVM.
	RootKey ed25519.PublicKey
	// Machine overrides the node hardware (nil = Pine A64).
	Machine *machine.Config
	// Node, if set, is a pre-built machine (e.g. one member of a
	// machine.Cluster) to assemble the stack on instead of constructing
	// one; Seed and Machine are then ignored.
	Node *machine.Node
}

// PrimaryKernel is what both kernels offer the node layer.
type PrimaryKernel interface {
	hafnium.PrimaryOS
	AddVM(vm *hafnium.VM, cores ...int) error
}

// SecureNode is a fully assembled system.
type SecureNode struct {
	Machine *machine.Node
	Monitor *tz.Monitor
	Chain   *boot.Chain
	Hyp     *hafnium.Hypervisor
	// AttestLog is the node-local hash-chained attestation ledger. Real VM
	// lifecycle transitions — contained crashes, watchdog restarts (cold or
	// from the warm snapshot), quarantines — are appended here as they
	// happen; replication layers ship these records fleet-wide.
	AttestLog *tz.AttestLog

	// OnLifecycle, if set, observes hypervisor lifecycle events after they
	// have been appended to AttestLog (e.g. to propose them to a
	// replicated ledger). Set before Boot.
	OnLifecycle func(hafnium.LifecycleEvent)

	Scheduler Scheduler
	// Exactly one of the two is non-nil, matching Scheduler.
	KittenPrimary *linkedKitten
	LinuxPrimary  *linuxos.Primary

	primary PrimaryKernel
	booted  bool
	opts    Options
}

// linkedKitten is a thin alias so callers get the concrete type.
type linkedKitten = kitten.Primary

// NewSecureNode builds machine → TrustZone monitor → measured boot chain
// → Hafnium → primary kernel, stopping just before Boot so callers can
// attach guests and VCPU threads.
func NewSecureNode(opts Options) (*SecureNode, error) {
	node := opts.Node
	if node == nil {
		mcfg := machine.PineA64Config(opts.Seed)
		if opts.Machine != nil {
			mcfg = *opts.Machine
			mcfg.Seed = opts.Seed
		}
		var err error
		node, err = machine.New(mcfg)
		if err != nil {
			return nil, err
		}
	}
	manifest, err := hafnium.ParseManifest(opts.Manifest)
	if err != nil {
		return nil, err
	}
	monitor := tz.NewMonitor(node.Mem, len(node.Cores), opts.DynamicPartitioning)

	// Measured boot: BL1 measures BL2, ... , SPM. The primary VM's image
	// is measured at Boot().
	chain := boot.NewChain(opts.RootKey)
	for s := boot.BL2; s <= boot.SPM; s++ {
		img := boot.Image{Name: s.String(), Payload: []byte("khsim-" + s.String() + "-v1")}
		if err := chain.HandOff(s, img); err != nil {
			return nil, err
		}
	}

	hyp, err := hafnium.New(node, manifest, monitor)
	if err != nil {
		return nil, err
	}
	n := &SecureNode{
		Machine:   node,
		Monitor:   monitor,
		Chain:     chain,
		Hyp:       hyp,
		AttestLog: tz.NewAttestLog(),
		Scheduler: opts.Scheduler,
		opts:      opts,
	}
	// Every lifecycle transition becomes a ledger record the moment it
	// happens (term 0: local evidence; replication stamps its own terms).
	hyp.SetLifecycleHook(func(ev hafnium.LifecycleEvent) {
		n.AttestLog.Append(0, []byte(fmt.Sprintf(
			"lifecycle %s vm=%s restarts=%d reason=%q", ev.Kind, ev.VM, ev.Restarts, ev.Reason)))
		if n.OnLifecycle != nil {
			n.OnLifecycle(ev)
		}
	})
	// Secure-world and ledger state join the node's composite snapshot
	// (the hypervisor and primary kernel register themselves).
	node.RegisterSnapshotter("tz.monitor", monitor)
	node.RegisterSnapshotter("tz.attestlog", n.AttestLog)
	switch opts.Scheduler {
	case SchedulerKitten:
		p := opts.Kitten
		if p == (kitten.Params{}) {
			p = kitten.DefaultParams()
		}
		kp := kitten.NewPrimary(hyp, p)
		n.KittenPrimary = kp
		n.primary = kp
	case SchedulerLinux:
		p := opts.Linux
		if isZeroLinux(p) {
			p = linuxos.DefaultParams()
		}
		lp := linuxos.NewPrimary(hyp, p)
		n.LinuxPrimary = lp
		n.primary = lp
	default:
		return nil, fmt.Errorf("core: unknown scheduler %d", opts.Scheduler)
	}
	hyp.AttachPrimary(n.primary)
	return n, nil
}

func isZeroLinux(p linuxos.Params) bool {
	return p.TickHz == 0 && p.TickCost == 0 && len(p.Kthreads) == 0
}

// AttachGuest installs a guest kernel in the named VM and creates its
// VCPU threads in the primary scheduler (optionally pinned).
func (n *SecureNode) AttachGuest(vmName string, g hafnium.GuestOS, cores ...int) error {
	vm, ok := n.Hyp.VMByName(vmName)
	if !ok {
		return fmt.Errorf("core: no VM %q in manifest", vmName)
	}
	if err := n.Hyp.AttachGuest(vm.ID(), g); err != nil {
		return err
	}
	if s, ok := g.(sim.Snapshotter); ok {
		n.Machine.RegisterSnapshotter("guest."+vmName, s)
	}
	return n.primary.AddVM(vm, cores...)
}

// Boot measures the primary VM into the chain, seals it, and starts the
// whole stack.
func (n *SecureNode) Boot() error {
	if n.booted {
		return fmt.Errorf("core: already booted")
	}
	img := boot.Image{
		Name:    "primary-" + n.Scheduler.String(),
		Payload: []byte("khsim-primary-" + n.Scheduler.String() + "-v1"),
	}
	if err := n.Chain.HandOff(boot.PrimaryVM, img); err != nil {
		return err
	}
	if err := n.Hyp.Boot(); err != nil {
		return err
	}
	n.booted = true
	return nil
}

// Run advances simulated time by d.
func (n *SecureNode) Run(d sim.Duration) {
	n.Machine.Engine.Run(n.Machine.Now().Add(d))
}

// Attestation returns the sealed boot chain's evidence.
func (n *SecureNode) Attestation() (boot.Attestation, error) {
	return n.Chain.Attest()
}

// LaunchSignedVM implements the paper's §VII proposal: a VM image
// supplied after boot is verified against the root key provisioned in
// BL1 before the (stopped) partition is restarted with it. The image
// digest is returned for audit logging.
func (n *SecureNode) LaunchSignedVM(vmName string, img boot.Image) ([32]byte, error) {
	digest, err := n.Chain.VerifyImage(img)
	if err != nil {
		return [32]byte{}, err
	}
	vm, ok := n.Hyp.VMByName(vmName)
	if !ok {
		return [32]byte{}, fmt.Errorf("core: no VM %q", vmName)
	}
	if err := n.Hyp.RestartVM(vm.ID()); err != nil {
		return [32]byte{}, err
	}
	return digest, nil
}

// StopVM stops the named partition (job control).
func (n *SecureNode) StopVM(vmName string) error {
	vm, ok := n.Hyp.VMByName(vmName)
	if !ok {
		return fmt.Errorf("core: no VM %q", vmName)
	}
	return n.Hyp.StopVM(vm.ID())
}

// NativeNode is the paper's baseline: Kitten running bare-metal, no
// hypervisor.
type NativeNode struct {
	Machine *machine.Node
	Kernel  *kitten.Native
}

// NewNativeNode builds and starts a native Kitten node.
func NewNativeNode(seed uint64, p kitten.Params) (*NativeNode, error) {
	if p == (kitten.Params{}) {
		p = kitten.DefaultParams()
	}
	node, err := machine.New(machine.PineA64Config(seed))
	if err != nil {
		return nil, err
	}
	k := kitten.NewNative(node, p)
	if err := k.Start(); err != nil {
		return nil, err
	}
	return &NativeNode{Machine: node, Kernel: k}, nil
}

// Run advances simulated time by d.
func (n *NativeNode) Run(d sim.Duration) {
	n.Machine.Engine.Run(n.Machine.Now().Add(d))
}
