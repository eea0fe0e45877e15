package kernel_test

// Control-task dedup tests: both primaries now share the substrate's
// command parser, and unknown commands, like commands from any VM but the
// super-secondary and stops and starts of a VM the primary controls, are
// counted and traced instead of silently dropped.

import (
	"slices"
	"strings"
	"testing"

	"khsim/internal/core"
	"khsim/internal/hafnium"
	"khsim/internal/kernel"
	"khsim/internal/kitten"
)

const ctlManifest = `
[vm primary]
class = primary
vcpus = 4
memory_mb = 256

[vm login]
class = super-secondary
vcpus = 1
memory_mb = 64

[vm job]
class = secondary
vcpus = 1
memory_mb = 64

[vm pooled]
class = secondary
vcpus = 1
memory_mb = 64
`

func TestControlCommandStats(t *testing.T) {
	type controller interface {
		ExecuteCommand(msg hafnium.Message)
		Stats() kernel.Stats
	}
	for _, tc := range []struct {
		name  string
		sched core.Scheduler
	}{
		{"kitten-primary", core.SchedulerKitten},
		{"linux-primary", core.SchedulerLinux},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, err := core.NewSecureNode(core.Options{
				Seed: 7, Manifest: ctlManifest, Scheduler: tc.sched,
			})
			if err != nil {
				t.Fatal(err)
			}
			var k controller
			if tc.sched == core.SchedulerKitten {
				k = n.KittenPrimary
			} else {
				k = n.LinuxPrimary
			}
			login, job, pooled := n.Hyp.Super(), mustVM(t, n, "job"), mustVM(t, n, "pooled")
			for i, name := range []string{"login", "job", "pooled"} {
				if err := n.AttachGuest(name, kitten.NewGuest(kitten.DefaultParams()), i+1); err != nil {
					t.Fatal(err)
				}
			}
			if err := n.Hyp.HandToPrimary(pooled.ID()); err != nil {
				t.Fatal(err)
			}
			if err := n.Boot(); err != nil {
				t.Fatal(err)
			}
			// send executes cmd from the VM from and returns the reply
			// waiting in from's mailbox.
			send := func(from *hafnium.VM, cmd string) string {
				t.Helper()
				k.ExecuteCommand(hafnium.Message{From: from.ID(), Payload: []byte(cmd)})
				msg, err := from.VCPU(0).ReceiveMessage()
				if err != nil {
					t.Fatalf("%q from %s: no reply: %v", cmd, from.Name(), err)
				}
				return string(msg.Payload)
			}
			// From the super-secondary, an unknown command is counted
			// whatever its argument; a known one naming no VM, or none at
			// all, is answered, not counted.
			for _, cmd := range []string{"status job", "frobnicate job", "frobnicate nosuchvm", "stop", "stop nosuchvm"} {
				send(login, cmd)
			}
			// The super-secondary may ask after a VM handed to the
			// primary, but its stop and start execute nothing and are
			// counted; the start is sent with the VM stopped directly.
			if r := send(login, "status pooled"); r != "ok: pooled is running" {
				t.Fatalf("status of the primary's VM: reply %q", r)
			}
			if r := send(login, "stop pooled"); !strings.HasPrefix(r, "error") || pooled.State() != hafnium.VMRunning {
				t.Fatalf("stop of the primary's VM: reply %q, VM %v, want an error and running", r, pooled.State())
			}
			if err := n.Hyp.StopVM(pooled.ID()); err != nil {
				t.Fatal(err)
			}
			if r := send(login, "start pooled"); !strings.HasPrefix(r, "error") || pooled.State() != hafnium.VMStopped {
				t.Fatalf("start of the primary's VM: reply %q, VM %v, want an error and stopped", r, pooled.State())
			}
			// From any other VM a known command executes nothing and is
			// counted.
			if r := send(job, "stop login"); !strings.HasPrefix(r, "error") || login.State() != hafnium.VMRunning {
				t.Fatalf("a secondary's stop: reply %q, login VM %v, want an error and running", r, login.State())
			}
			st := k.Stats()
			if st.Commands != 9 {
				t.Fatalf("commands = %d, want 9", st.Commands)
			}
			if st.BadCommands != 5 {
				t.Fatalf("bad commands = %d, want 5", st.BadCommands)
			}
			var notes []string
			for _, r := range n.Machine.Trace.Filter("kernel.badcmd") {
				notes = append(notes, r.Note)
			}
			if want := []string{"frobnicate", "frobnicate", "denied stop", "denied start", "denied stop"}; !slices.Equal(notes, want) {
				t.Fatalf("badcmd trace notes = %q, want %q", notes, want)
			}
		})
	}
}

func mustVM(t *testing.T, n *core.SecureNode, name string) *hafnium.VM {
	t.Helper()
	vm, ok := n.Hyp.VMByName(name)
	if !ok {
		t.Fatalf("no %s VM", name)
	}
	return vm
}
