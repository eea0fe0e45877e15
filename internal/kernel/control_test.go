package kernel_test

// Control-task dedup tests: both primaries now share the substrate's
// command parser, and unknown commands are counted and traced instead of
// silently dropped.

import (
	"testing"

	"khsim/internal/core"
	"khsim/internal/hafnium"
	"khsim/internal/kernel"
)

const ctlManifest = `
[vm primary]
class = primary
vcpus = 4
memory_mb = 256

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
			job, ok := n.Hyp.VMByName("job")
			if !ok {
				t.Fatal("no job VM")
			}
			// An unknown command is counted whatever its argument; a known
			// one naming no VM, or none at all, is answered, not counted.
			for _, cmd := range []string{"status job", "frobnicate job", "frobnicate nosuchvm", "stop", "stop nosuchvm"} {
				k.ExecuteCommand(hafnium.Message{From: job.ID(), Payload: []byte(cmd)})
			}
			st := k.Stats()
			if st.Commands != 5 {
				t.Fatalf("commands = %d, want 5", st.Commands)
			}
			if st.BadCommands != 2 {
				t.Fatalf("bad commands = %d, want 2", st.BadCommands)
			}
			recs := n.Machine.Trace.Filter("kernel.badcmd")
			if len(recs) != 2 {
				t.Fatalf("badcmd trace records = %d, want 2", len(recs))
			}
			for _, r := range recs {
				if r.Note != "frobnicate" {
					t.Fatalf("badcmd note = %q, want %q", r.Note, "frobnicate")
				}
			}
		})
	}
}
