package kernel_test

// Control-task dedup tests: both primaries now share the substrate's
// command parser, and unknown commands, like commands from any VM but the
// super-secondary, are counted and traced instead of silently dropped.

import (
	"slices"
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
			login, job := n.Hyp.Super(), mustVM(t, n, "job")
			for i, name := range []string{"login", "job"} {
				if err := n.AttachGuest(name, kitten.NewGuest(kitten.DefaultParams()), i+1); err != nil {
					t.Fatal(err)
				}
			}
			if err := n.Boot(); err != nil {
				t.Fatal(err)
			}
			// From the super-secondary, an unknown command is counted
			// whatever its argument; a known one naming no VM, or none at
			// all, is answered, not counted.
			for _, cmd := range []string{"status job", "frobnicate job", "frobnicate nosuchvm", "stop", "stop nosuchvm"} {
				k.ExecuteCommand(hafnium.Message{From: login.ID(), Payload: []byte(cmd)})
			}
			// From any other VM a known command executes nothing and is
			// counted.
			k.ExecuteCommand(hafnium.Message{From: job.ID(), Payload: []byte("stop login")})
			if login.State() != hafnium.VMRunning {
				t.Fatalf("login VM is %v after a secondary's stop, want running", login.State())
			}
			st := k.Stats()
			if st.Commands != 6 {
				t.Fatalf("commands = %d, want 6", st.Commands)
			}
			if st.BadCommands != 3 {
				t.Fatalf("bad commands = %d, want 3", st.BadCommands)
			}
			var notes []string
			for _, r := range n.Machine.Trace.Filter("kernel.badcmd") {
				notes = append(notes, r.Note)
			}
			if want := []string{"frobnicate", "frobnicate", "denied stop"}; !slices.Equal(notes, want) {
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
