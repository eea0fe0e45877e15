package kernel

import (
	"khsim/internal/hafnium"
	"khsim/internal/machine"
	"khsim/internal/sim"
)

// controlTask is the paper's §IV-a control process: it drains the
// mailbox and executes job-control commands from the super-secondary.
// Commands: "stop <vm>", "start <vm>", "status <vm>". Replies go back to
// the sender's mailbox when it can receive them.
func (k *Kernel) controlTask(c *machine.Core) {
	msg, err := k.h.RecvForPrimary()
	if err != nil {
		return
	}
	if k.OnMessage != nil {
		k.OnMessage(msg)
		return
	}
	k.ExecuteCommand(msg)
}

// ExecuteCommand runs one job-control command and replies to the sender.
// Job control belongs to the super-secondary: a command from any other VM
// executes nothing, and a stop or start executes only when the sender is
// the named VM's controller (hafnium.VM.Controller), so a VM handed to
// the primary is out of the super-secondary's reach. A command denied
// either way and an unknown one are counted and traced (kind
// "kernel.badcmd") rather than dropped on the floor, whatever their
// argument, and answered with an error; a known command naming no VM is
// answered with an error.
func (k *Kernel) ExecuteCommand(msg hafnium.Message) {
	cmd, arg, _ := cutCommand(string(msg.Payload))
	k.mCommands.Inc()
	reply := func(s string) {
		// Best effort: the sender may have a full mailbox.
		_ = k.h.SendFromPrimary(msg.From, []byte(s))
	}
	bad := func(note, answer string) {
		k.mBadCommands.Inc()
		k.node.Trace.Add(sim.Record{
			At: k.node.Now(), Core: -1, Kind: "kernel.badcmd", Note: note,
		})
		reply(answer)
	}
	switch cmd {
	case "stop", "start", "status":
	default:
		bad(cmd, "error: unknown command "+cmd)
		return
	}
	if super := k.h.Super(); super == nil || msg.From != super.ID() {
		bad("denied "+cmd, "error: job control is the super-secondary's")
		return
	}
	vm, ok := k.h.VMByName(arg)
	if !ok {
		reply("error: no vm " + arg)
		return
	}
	if cmd != "status" && vm.Controller() != msg.From {
		bad("denied "+cmd, "error: "+arg+" is not the sender's to control")
		return
	}
	switch cmd {
	case "stop":
		if err := k.h.StopVM(vm.ID()); err != nil {
			reply("error: " + err.Error())
			return
		}
		reply("ok: stopped " + arg)
	case "start":
		if err := k.h.RestartVM(vm.ID()); err != nil {
			reply("error: " + err.Error())
			return
		}
		reply("ok: started " + arg)
	case "status":
		reply("ok: " + arg + " is " + vm.State().String())
	}
}

func cutCommand(s string) (cmd, arg string, ok bool) {
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' {
			return s[:i], s[i+1:], true
		}
	}
	return s, "", false
}
