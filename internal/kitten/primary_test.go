package kitten

import (
	"slices"
	"strings"
	"testing"

	"khsim/internal/hafnium"
	"khsim/internal/machine"
	"khsim/internal/sim"
)

const stackManifest = `
[vm kitten]
class = primary
vcpus = 4
memory_mb = 128

[vm job]
class = secondary
vcpus = 1
memory_mb = 128
`

// buildStack boots node + hafnium + kitten primary + kitten guest with
// the given workload on the job VM's VCPU 0.
func buildStack(t *testing.T, manifest string, work *chunkProc) (*machine.Node, *hafnium.Hypervisor, *Primary, *Guest) {
	t.Helper()
	node, h, prim, guest := unbootedStack(t, manifest, work)
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	return node, h, prim, guest
}

// unbootedStack is buildStack short of the boot, for a test that
// configures the hypervisor first.
func unbootedStack(t *testing.T, manifest string, work *chunkProc) (*machine.Node, *hafnium.Hypervisor, *Primary, *Guest) {
	t.Helper()
	m, err := hafnium.ParseManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	node := machine.MustNew(machine.PineA64Config(23))
	h, err := hafnium.New(node, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	prim := NewPrimary(h, DefaultParams())
	h.AttachPrimary(prim)
	guest := NewGuest(DefaultParams())
	if work != nil {
		guest.Attach(0, work)
	}
	for _, vm := range h.VMs() {
		if vm.Class() == hafnium.Primary {
			continue
		}
		if err := h.AttachGuest(vm.ID(), guest); err != nil {
			t.Fatal(err)
		}
		if err := prim.AddVM(vm); err != nil {
			t.Fatal(err)
		}
	}
	return node, h, prim, guest
}

func TestPrimaryRunsGuestWorkload(t *testing.T) {
	work := &chunkProc{label: "bench", d: sim.FromSeconds(0.05), n: 10}
	node, h, prim, guest := buildStack(t, stackManifest, work)
	node.Engine.Run(sim.Time(sim.FromSeconds(1)))
	if !work.finished {
		t.Fatalf("guest workload unfinished: completed=%d", work.completed)
	}
	// The guest ticks at 10Hz and the primary at 10Hz: the 0.5s workload
	// sees both noise sources but loses only microseconds per event.
	if work.preempts < 5 {
		t.Fatalf("preempts = %d", work.preempts)
	}
	per := work.stolen / sim.Duration(work.preempts)
	if per > sim.FromMicros(25) {
		t.Fatalf("mean detour %v too large for the Kitten stack", per)
	}
	if guest.Ticks() == 0 || prim.Ticks() == 0 {
		t.Fatalf("ticks guest=%d primary=%d", guest.Ticks(), prim.Ticks())
	}
	if h.Stats().WorldSwitches == 0 || h.Stats().Injections == 0 {
		t.Fatalf("stats = %+v", h.Stats())
	}
	// After completion the guest blocks for good: its thread parks.
	job, _ := h.VMByName("job")
	if tk := prim.Task(job.VCPU(0)); tk.State() != TaskBlocked {
		t.Fatalf("vcpu thread state = %v", tk.State())
	}
	if !guest.Done(0) {
		t.Fatal("guest not marked done")
	}
}

func TestPrimaryAddVMSpreadsVCPUs(t *testing.T) {
	manifest := `
[vm kitten]
class = primary
vcpus = 4
memory_mb = 128

[vm wide]
class = secondary
vcpus = 4
memory_mb = 128
`
	work := &chunkProc{label: "w", d: sim.FromMicros(100), n: 1}
	node, h, prim, _ := buildStack(t, manifest, work)
	wide, _ := h.VMByName("wide")
	for i := 0; i < 4; i++ {
		tk := prim.Task(wide.VCPU(i))
		if tk == nil || tk.Core() != i {
			t.Fatalf("vcpu %d task core = %v", i, tk)
		}
	}
	node.Engine.Run(sim.Time(sim.FromSeconds(0.2)))
	if !work.finished {
		t.Fatal("vcpu0 workload unfinished")
	}
	_ = node
}

func TestPrimaryAddVMValidation(t *testing.T) {
	work := &chunkProc{label: "w", d: sim.FromMicros(10), n: 1}
	_, h, prim, _ := buildStack(t, stackManifest, work)
	job, _ := h.VMByName("job")
	if err := prim.AddVM(job, 1, 2); err == nil {
		t.Fatal("mismatched core list accepted")
	}
	if err := prim.AddVM(job, 99); err == nil {
		t.Fatal("bad core accepted")
	}
}

// TestControlTaskStopStartStatus drives job control from the
// super-secondary login VM, and checks that the same command from the
// secondary job VM executes nothing, and that the login VM may ask after
// a VM handed to the primary but not stop or start it.
func TestControlTaskStopStartStatus(t *testing.T) {
	const manifest = stackManifest + `
[vm login]
class = super-secondary
vcpus = 1
memory_mb = 128

[vm pooled]
class = secondary
vcpus = 1
memory_mb = 128
`
	// Every VM parks at boot and wakes for each reply; they share one
	// guest, which keeps the replies each receives.
	node, h, prim, guest := unbootedStack(t, manifest, nil)
	job, _ := h.VMByName("job")
	pooled, _ := h.VMByName("pooled")
	login := h.Super()
	if err := h.HandToPrimary(pooled.ID()); err != nil {
		t.Fatal(err)
	}
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	replies := map[hafnium.VMID][]string{}
	guest.OnMessage = func(vc *hafnium.VCPU, msg hafnium.Message) {
		replies[vc.VM().ID()] = append(replies[vc.VM().ID()], string(msg.Payload))
	}
	node.Engine.Run(sim.Time(sim.FromSeconds(0.05)))
	command := func(from *hafnium.VM, cmd string, d sim.Duration) {
		prim.ExecuteCommand(hafnium.Message{From: from.ID(), Payload: []byte(cmd)})
		node.Engine.Run(node.Now().Add(d))
	}

	command(login, "status job", sim.FromSeconds(0.05))
	if r := replies[login.ID()]; len(r) != 1 || !strings.Contains(r[0], "running") {
		t.Fatalf("status replies = %q", r)
	}

	command(login, "stop job", sim.FromSeconds(0.05))
	if job.State() != hafnium.VMStopped {
		t.Fatalf("job state = %v", job.State())
	}

	command(login, "start job", sim.FromSeconds(0.2))
	if job.State() != hafnium.VMRunning {
		t.Fatalf("job state after start = %v", job.State())
	}

	// The secondary's stop is denied, counted and answered with an error.
	command(job, "stop login", sim.FromSeconds(0.05))
	if login.State() != hafnium.VMRunning {
		t.Fatalf("login state after the job VM's stop = %v", login.State())
	}
	if r := replies[job.ID()]; len(r) != 1 || !strings.Contains(r[0], "error") {
		t.Fatalf("denied replies = %q", r)
	}
	if st := prim.Stats(); st.BadCommands != 1 {
		t.Fatalf("bad commands = %d, want 1", st.BadCommands)
	}

	// The VM handed to the primary: status is answered, and stop and
	// start are denied, counted, traced and answered with an error,
	// leaving the VM as it was (the start is sent with it stopped
	// directly).
	replies = map[hafnium.VMID][]string{}
	command(login, "status pooled", sim.FromSeconds(0.05))
	command(login, "stop pooled", sim.FromSeconds(0.05))
	if pooled.State() != hafnium.VMRunning {
		t.Fatalf("pooled state after the login VM's stop = %v", pooled.State())
	}
	if err := h.StopVM(pooled.ID()); err != nil {
		t.Fatal(err)
	}
	command(login, "start pooled", sim.FromSeconds(0.2))
	if pooled.State() != hafnium.VMStopped {
		t.Fatalf("pooled state after the login VM's start = %v", pooled.State())
	}
	r := replies[login.ID()]
	if len(r) != 3 || r[0] != "ok: pooled is running" || !strings.HasPrefix(r[1], "error") || !strings.HasPrefix(r[2], "error") {
		t.Fatalf("replies about the primary's VM = %q", r)
	}
	if st := prim.Stats(); st.BadCommands != 3 {
		t.Fatalf("bad commands = %d, want 3", st.BadCommands)
	}
	var notes []string
	for _, rec := range node.Trace.Filter("kernel.badcmd") {
		notes = append(notes, rec.Note)
	}
	if want := []string{"denied stop", "denied stop", "denied start"}; !slices.Equal(notes, want) {
		t.Fatalf("badcmd trace notes = %q, want %q", notes, want)
	}

	// Unknown command and unknown VM produce error replies.
	replies = map[hafnium.VMID][]string{}
	command(login, "bogus job", sim.FromSeconds(0.05))
	command(login, "status nosuchvm", sim.FromSeconds(0.05))
	if r := replies[login.ID()]; len(r) != 2 || !strings.Contains(r[0], "error") || !strings.Contains(r[1], "error") {
		t.Fatalf("error replies = %q", r)
	}
}

func TestPrimaryForwardsDeviceIRQ(t *testing.T) {
	manifest := `
[vm kitten]
class = primary
vcpus = 4
memory_mb = 128

[vm login]
class = super-secondary
vcpus = 1
memory_mb = 64
`
	node, h, prim, guest := buildStack(t, manifest, nil)
	var devIRQs []int
	guest.OnDeviceIRQ = func(vc *hafnium.VCPU, virq int) { devIRQs = append(devIRQs, virq) }
	// Give the login VM something to do so it is resident.
	login := h.Super()
	node.Engine.Run(sim.Time(sim.FromSeconds(0.01)))
	const nic = 45
	node.GIC.Enable(nic)
	node.GIC.Route(nic, 0)
	node.GIC.RaiseSPI(nic)
	node.Engine.Run(sim.Time(sim.FromSeconds(0.3)))
	if prim.Forwards() != 1 {
		t.Fatalf("forwards = %d", prim.Forwards())
	}
	if len(devIRQs) != 1 || devIRQs[0] != nic {
		t.Fatalf("login saw %v", devIRQs)
	}
	_ = login
}

func TestPrimarySpawnProcessAlongsideVCPUs(t *testing.T) {
	work := &chunkProc{label: "guestwork", d: sim.FromSeconds(0.2), n: 2}
	node, _, prim, _ := buildStack(t, stackManifest, work)
	// A primary-side process on core 1 (the vcpu thread is on core 0).
	pproc := &chunkProc{label: "pwork", d: sim.FromMicros(500), n: 4}
	if _, err := prim.Spawn("pwork", 1, pproc); err != nil {
		t.Fatal(err)
	}
	if _, err := prim.Spawn("bad", -2, pproc); err == nil {
		t.Fatal("bad core accepted")
	}
	node.Engine.Run(sim.Time(sim.FromSeconds(1)))
	if !pproc.finished || !work.finished {
		t.Fatalf("pproc=%v work=%v", pproc.finished, work.finished)
	}
}

func TestPrimaryRoundRobinTwoVCPUsOneCore(t *testing.T) {
	manifest := `
[vm kitten]
class = primary
vcpus = 4
memory_mb = 128

[vm a]
class = secondary
vcpus = 1
memory_mb = 64

[vm b]
class = secondary
vcpus = 1
memory_mb = 64
`
	m, err := hafnium.ParseManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	node := machine.MustNew(machine.PineA64Config(31))
	h, err := hafnium.New(node, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	prim := NewPrimary(h, DefaultParams())
	h.AttachPrimary(prim)
	wa := &chunkProc{label: "wa", d: sim.FromSeconds(0.25), n: 2}
	wb := &chunkProc{label: "wb", d: sim.FromSeconds(0.25), n: 2}
	ga := NewGuest(DefaultParams())
	ga.Attach(0, wa)
	gb := NewGuest(DefaultParams())
	gb.Attach(0, wb)
	a, _ := h.VMByName("a")
	b, _ := h.VMByName("b")
	h.AttachGuest(a.ID(), ga)
	h.AttachGuest(b.ID(), gb)
	// Pin both VCPUs to core 0 to force sharing.
	if err := prim.AddVM(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := prim.AddVM(b, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	node.Engine.Run(sim.Time(sim.FromSeconds(3)))
	if !wa.finished || !wb.finished {
		t.Fatalf("wa=%v wb=%v", wa.finished, wb.finished)
	}
	// Interleaved: b cannot finish its 0.5s before ~0.9s of wall time.
	if wb.doneAt < sim.Time(sim.FromSeconds(0.9)) {
		t.Fatalf("no interleaving: wb done at %v", wb.doneAt)
	}
}
