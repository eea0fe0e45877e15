// Package faults is a deterministic, seed-driven fault-injection
// subsystem for the simulated secure node. It plugs into the discrete-
// event engine and injects hardware- and guest-level faults on an
// explicit schedule or probabilistically (exponential inter-arrivals):
// spurious and storming device interrupts through the GIC, virtual-timer
// drift, silent stage-2 permission corruption, TLB corruption, outright
// VCPU crashes, and rogue hypercalls. Everything the injector does is a
// function of (seed, rules, engine state), so two runs with the same
// inputs produce bit-for-bit identical event traces — the property the
// containment experiments rely on.
//
// The injector deliberately owns an RNG *independent* of the engine's
// stream: enabling it must not perturb the random draws of unrelated
// components, so a fault-free run and a faulted run stay comparable
// everywhere the faults don't reach.
package faults

import (
	"fmt"
	"strings"

	"khsim/internal/hafnium"
	"khsim/internal/machine"
	"khsim/internal/mem"
	"khsim/internal/metrics"
	"khsim/internal/mmu"
	"khsim/internal/net"
	"khsim/internal/sim"
)

// Kind enumerates the injectable fault classes.
type Kind int

// Fault kinds.
const (
	// SpuriousIRQ raises a stray device SPI no driver asked for.
	SpuriousIRQ Kind = iota
	// IRQStorm raises a back-to-back burst of the same stray SPI.
	IRQStorm
	// TimerDrift pushes the target VM's armed virtual-timer deadline into
	// the future, modelling a drifting or missed tick.
	TimerDrift
	// Stage2Flip silently downgrades a random page of the target VM's
	// stage-2 RAM mapping to read-only; the hypervisor detects the
	// violation and contains the VM.
	Stage2Flip
	// TLBCorrupt invalidates a core's entire TLB — a performance fault,
	// not a correctness one. No TLB entries are modelled, so it counts
	// one invalidation on the core and drops nothing.
	TLBCorrupt
	// VCPUCrash kills the target VM outright (a guest panic).
	VCPUCrash
	// RogueHypercall issues malformed hypercalls in the target VM's name:
	// bad mem-share handles, misaligned and out-of-range regions,
	// self-notification.
	RogueHypercall

	// Network fault kinds act on the cluster fabric (SetFabric) instead
	// of a single node's hypervisor; their Target is a node ("node2", or
	// empty to rotate over the fabric).

	// NetPartition isolates a node: all its traffic, in flight included,
	// is dropped until a NetHeal.
	NetPartition
	// NetHeal reconnects a partitioned node.
	NetHeal
	// NetDrop silently drops the next Burst messages touching the node.
	NetDrop
	// NetDelay stretches the node's links by Drift for a Window — a
	// congestion spike, not loss.
	NetDelay

	// MigrationKill partitions one side of the first in-flight live
	// migration (SetCluster required): Target "source" cuts the sending
	// node, anything else the receiving node. The migration protocol must
	// leave exactly one live copy of the VM either way — resumed at the
	// source or completed at the target, never both. Heal with NetHeal.
	MigrationKill

	nKinds // sentinel
)

// String names the fault kind as it appears in injection logs.
func (k Kind) String() string {
	switch k {
	case SpuriousIRQ:
		return "spurious"
	case IRQStorm:
		return "storm"
	case TimerDrift:
		return "drift"
	case Stage2Flip:
		return "s2flip"
	case TLBCorrupt:
		return "tlb"
	case VCPUCrash:
		return "crash"
	case RogueHypercall:
		return "rogue"
	case NetPartition:
		return "partition"
	case NetHeal:
		return "heal"
	case NetDrop:
		return "netdrop"
	case NetDelay:
		return "netdelay"
	case MigrationKill:
		return "migkill"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind maps a spec-string name back to a Kind.
func ParseKind(s string) (Kind, error) {
	for k := Kind(0); k < nKinds; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("faults: unknown fault kind %q", s)
}

// Rule schedules injections of one fault kind. Either Mean (exponential
// inter-arrivals) or explicit At times must be set.
type Rule struct {
	Kind   Kind
	Target string       // VM name for VM-directed faults; "" = rotate over non-primary VMs
	Core   int          // physical core for IRQ/TLB faults; negative = rotate
	Mean   sim.Duration // mean exponential inter-arrival (0 = use At only)
	At     []sim.Time   // explicit injection times
	Count  int          // cap on probabilistic firings (0 = until the horizon)
	Burst  int          // storm size / NetDrop message count (0 = 8 / 1)
	Drift  sim.Duration // timer-drift or NetDelay magnitude (0 = 50µs)
	Window sim.Duration // NetDelay spike window (0 = 1ms)
}

// Record is one injected fault in the deterministic event trace.
type Record struct {
	Seq    int
	At     sim.Time
	Kind   Kind
	Target string // VM name or "core<N>"
	Detail string
}

// String formats one injection record as a log line.
func (r Record) String() string {
	return fmt.Sprintf("%12.6fs %-8s %-10s %s", r.At.Seconds(), r.Kind, r.Target, r.Detail)
}

// Stats summarizes injector activity.
type Stats struct {
	Injected uint64
	ByKind   [nKinds]uint64
}

// spuriousSPI is the device interrupt line the injector claims for stray
// and storming interrupts (well clear of the node's real devices).
const spuriousSPI = 96

// Injector drives a rule set against one node. Build with New, then
// Start once the system is booted.
type Injector struct {
	node    *machine.Node
	hyp     *hafnium.Hypervisor
	rng     *sim.RNG
	rules   []Rule
	fired   []int
	trace   []Record
	stats   Stats
	victims []*hafnium.VM
	fabric  *net.Fabric      // nil outside cluster runs
	cluster *machine.Cluster // nil unless MigrationKill rules are in play

	// Hot-path caches: the injector fires thousands of times per run, so
	// the per-firing engine bookkeeping is precomputed once instead of
	// rebuilt (and reallocated) on every arm.
	until     sim.Time  // injection horizon, fixed at Start
	eventName []string  // per rule: "faults.<kind>" engine event name
	rearm     []func()  // per rule: fire-then-rearm callback
	pulseFn   func(any) // storm pulse callback; arg is the target core
	coreName  []string  // per core: "core<N>" trace target

	mInjected *metrics.Counter   // faults/injected, resolved once
	mByRule   []*metrics.Counter // per rule: faults/injected.<kind>

	nextVictim int
	nextCore   int
	nextNode   int
	started    bool
}

// SetFabric points the injector at the cluster fabric, enabling the
// network fault kinds. Must be called before Start when any rule uses
// them.
func (in *Injector) SetFabric(f *net.Fabric) { in.fabric = f }

// SetCluster points the injector at the cluster, enabling MigrationKill
// (which needs the live-migration list to pick its victim). Implies
// SetFabric when none was set. Must be called before Start when any rule
// uses MigrationKill.
func (in *Injector) SetCluster(c *machine.Cluster) {
	in.cluster = c
	if in.fabric == nil {
		in.fabric = c.Fabric
	}
}

// New validates the rules and builds an injector over a constructed (not
// necessarily booted) secure node. The seed is independent of the engine
// seed so injection randomness never couples to workload randomness.
func New(node *machine.Node, hyp *hafnium.Hypervisor, seed uint64, rules []Rule) (*Injector, error) {
	in := &Injector{
		node:  node,
		hyp:   hyp,
		rng:   sim.NewRNG(seed*0x9e3779b97f4a7c15 + 0xfa017),
		rules: rules,
		fired: make([]int, len(rules)),
	}
	for _, vm := range hyp.VMs() {
		if vm.Class() != hafnium.Primary {
			in.victims = append(in.victims, vm)
		}
	}
	for i, r := range rules {
		if r.Kind < 0 || r.Kind >= nKinds {
			return nil, fmt.Errorf("faults: rule %d: unknown kind %d", i, int(r.Kind))
		}
		if r.Mean <= 0 && len(r.At) == 0 {
			return nil, fmt.Errorf("faults: rule %d (%v): needs Mean or At times", i, r.Kind)
		}
		if r.Kind == MigrationKill {
			if r.Target != "" && r.Target != "source" && r.Target != "target" {
				return nil, fmt.Errorf("faults: rule %d (migkill): target %q (want source or target)", i, r.Target)
			}
		} else if needsFabric(r.Kind) {
			if r.Target != "" {
				if _, err := parseNodeTarget(r.Target); err != nil {
					return nil, fmt.Errorf("faults: rule %d (%v): %w", i, r.Kind, err)
				}
			}
		} else if r.Target != "" {
			if _, ok := hyp.VMByName(r.Target); !ok {
				return nil, fmt.Errorf("faults: rule %d (%v): no VM %q", i, r.Kind, r.Target)
			}
		} else if needsVM(r.Kind) && len(in.victims) == 0 {
			return nil, fmt.Errorf("faults: rule %d (%v): no non-primary VM to target", i, r.Kind)
		}
		if r.Core >= len(node.Cores) {
			return nil, fmt.Errorf("faults: rule %d (%v): bad core %d", i, r.Kind, r.Core)
		}
	}
	in.eventName = make([]string, len(rules))
	in.mByRule = make([]*metrics.Counter, len(rules))
	in.mInjected = node.Metrics.Counter(metrics.K("faults", "injected"))
	for i := range rules {
		in.eventName[i] = "faults." + rules[i].Kind.String()
		in.mByRule[i] = node.Metrics.Counter(metrics.K("faults", "injected."+rules[i].Kind.String()))
	}
	in.coreName = make([]string, len(node.Cores))
	for i := range in.coreName {
		in.coreName[i] = fmt.Sprintf("core%d", i)
	}
	in.pulseFn = func(core any) { in.raise(core.(int)) }
	return in, nil
}

func needsVM(k Kind) bool {
	switch k {
	case TimerDrift, Stage2Flip, VCPUCrash, RogueHypercall:
		return true
	}
	return false
}

// needsFabric reports whether a kind targets the cluster fabric.
func needsFabric(k Kind) bool {
	switch k {
	case NetPartition, NetHeal, NetDrop, NetDelay:
		return true
	}
	return false
}

// parseNodeTarget reads a network fault target of the form "node<N>".
func parseNodeTarget(s string) (net.NodeID, error) {
	var n int
	if _, err := fmt.Sscanf(s, "node%d", &n); err != nil || n < 0 {
		return 0, fmt.Errorf("faults: network fault target %q (want node<N>)", s)
	}
	return net.NodeID(n), nil
}

// Start enables the spurious interrupt line and schedules every rule's
// injections up to the horizon. Call after the node has booted.
func (in *Injector) Start(until sim.Time) error {
	if in.started {
		return fmt.Errorf("faults: injector already started")
	}
	in.started = true
	for i := range in.rules {
		if needsFabric(in.rules[i].Kind) && in.fabric == nil {
			return fmt.Errorf("faults: rule %d (%v) needs a cluster fabric (SetFabric)", i, in.rules[i].Kind)
		}
		if in.rules[i].Kind == MigrationKill && in.cluster == nil {
			return fmt.Errorf("faults: rule %d (migkill) needs a cluster (SetCluster)", i)
		}
	}
	if err := in.node.GIC.Enable(spuriousSPI); err != nil {
		return fmt.Errorf("faults: claiming SPI %d: %w", spuriousSPI, err)
	}
	in.until = until
	in.rearm = make([]func(), len(in.rules))
	for i := range in.rules {
		ri := i
		in.rearm[i] = func() {
			in.fire(ri)
			in.armNext(ri)
		}
	}
	for i := range in.rules {
		r := &in.rules[i]
		for _, at := range r.At {
			t := at
			if t < in.node.Now() {
				t = in.node.Now()
			}
			ri := i
			in.node.Engine.ScheduleNamed(t, in.eventName[i], func() { in.fire(ri) })
		}
		if r.Mean > 0 {
			in.armNext(i)
		}
	}
	return nil
}

// armNext schedules rule ri's next probabilistic firing. The callback and
// event name are the per-rule cached ones, so arming is allocation-free.
func (in *Injector) armNext(ri int) {
	r := &in.rules[ri]
	if r.Count > 0 && in.fired[ri] >= r.Count {
		return
	}
	at := in.node.Now().Add(in.rng.ExpDuration(r.Mean))
	if at > in.until {
		return
	}
	in.node.Engine.ScheduleNamed(at, in.eventName[ri], in.rearm[ri])
}

// Trace returns the injection event trace in firing order.
func (in *Injector) Trace() []Record {
	out := make([]Record, len(in.trace))
	copy(out, in.trace)
	return out
}

// Stats returns a snapshot of the injection counters.
func (in *Injector) Stats() Stats { return in.stats }

// pickVM resolves a rule's target VM, rotating round-robin over the
// non-primary partitions when unset (round-robin, not random, so target
// choice stays stable even if rule sets change).
func (in *Injector) pickVM(r *Rule) *hafnium.VM {
	if r.Target != "" {
		vm, _ := in.hyp.VMByName(r.Target)
		return vm
	}
	vm := in.victims[in.nextVictim%len(in.victims)]
	in.nextVictim++
	return vm
}

// pickNode resolves a network rule's target node, rotating over the
// fabric when unset.
func (in *Injector) pickNode(r *Rule) net.NodeID {
	if r.Target != "" {
		id, _ := parseNodeTarget(r.Target) // validated in New
		return id
	}
	id := net.NodeID(in.nextNode % in.fabric.Nodes())
	in.nextNode++
	return id
}

// pickCore resolves a rule's target core, rotating when negative.
func (in *Injector) pickCore(r *Rule) int {
	if r.Core >= 0 {
		return r.Core
	}
	c := in.nextCore % len(in.node.Cores)
	in.nextCore++
	return c
}

// fire performs one injection for rule ri and appends a trace record.
func (in *Injector) fire(ri int) {
	r := &in.rules[ri]
	in.fired[ri]++
	rec := Record{Seq: len(in.trace), At: in.node.Now(), Kind: r.Kind}
	switch r.Kind {
	case SpuriousIRQ:
		core := in.pickCore(r)
		rec.Target = in.coreName[core]
		rec.Detail = in.raiseSPI(core)
	case IRQStorm:
		core := in.pickCore(r)
		burst := r.Burst
		if burst <= 0 {
			burst = 8
		}
		rec.Target = in.coreName[core]
		rec.Detail = fmt.Sprintf("burst of %d on SPI %d", burst, spuriousSPI)
		// The GIC deduplicates a pending SPI, so the burst is spread one
		// microsecond apart: each raise lands after the previous one was
		// acknowledged.
		for i := 0; i < burst; i++ {
			at := in.node.Now().Add(sim.FromMicros(float64(i)))
			in.node.Engine.ScheduleArg(at, "faults.storm.pulse", in.pulseFn, core)
		}
	case TimerDrift:
		vm := in.pickVM(r)
		rec.Target = vm.Name()
		drift := r.Drift
		if drift <= 0 {
			drift = sim.FromMicros(50)
		}
		vc := vm.VCPU(0)
		if vm.State() != hafnium.VMRunning || vc == nil || !vc.VTimerArmed() {
			rec.Detail = "no armed vtimer; skipped"
			break
		}
		old := vc.VTimerDeadline()
		vc.ArmVTimer(old.Add(drift))
		rec.Detail = fmt.Sprintf("vtimer deadline +%v", drift)
	case Stage2Flip:
		vm := in.pickVM(r)
		rec.Target = vm.Name()
		if vm.State() != hafnium.VMRunning {
			rec.Detail = fmt.Sprintf("vm %v; skipped", vm.State())
			break
		}
		base, size := vm.RAM()
		page := uint64(in.rng.Intn(int(size / mem.PageSize)))
		ipa := base + page*mem.PageSize
		if err := vm.Stage2().Protect(ipa, mem.PageSize, mmu.PermR); err != nil {
			rec.Detail = fmt.Sprintf("flip at IPA %#x: %v", ipa, err)
			break
		}
		// The corruption is detected at the guest's next write: model the
		// detection as an immediate hypervisor-observed stage-2 violation.
		err := in.hyp.InjectVMFault(vm.ID(), fmt.Sprintf("stage-2 permission corruption at IPA %#x", ipa))
		rec.Detail = fmt.Sprintf("RO flip at IPA %#x; contained (%v)", ipa, err)
	case TLBCorrupt:
		core := in.pickCore(r)
		in.node.Cores[core].InvalidateTLB()
		rec.Target = in.coreName[core]
		rec.Detail = "invalidated 0 TLB entries"
	case VCPUCrash:
		vm := in.pickVM(r)
		rec.Target = vm.Name()
		if err := in.hyp.InjectVMFault(vm.ID(), "injected vcpu crash"); err != nil {
			rec.Detail = fmt.Sprintf("not crashed: %v", err)
		} else {
			rec.Detail = "crashed; contained"
		}
	case RogueHypercall:
		vm := in.pickVM(r)
		rec.Target = vm.Name()
		rec.Detail = in.rogueHypercall(vm)
	case NetPartition:
		id := in.pickNode(r)
		rec.Target = fmt.Sprintf("node%d", id)
		if err := in.fabric.Partition(id); err != nil {
			rec.Detail = fmt.Sprintf("partition: %v", err)
		} else {
			rec.Detail = "partitioned"
		}
	case NetHeal:
		id := in.pickNode(r)
		rec.Target = fmt.Sprintf("node%d", id)
		if err := in.fabric.Heal(id); err != nil {
			rec.Detail = fmt.Sprintf("heal: %v", err)
		} else {
			rec.Detail = "healed"
		}
	case NetDrop:
		id := in.pickNode(r)
		n := r.Burst
		if n <= 0 {
			n = 1
		}
		rec.Target = fmt.Sprintf("node%d", id)
		if err := in.fabric.DropNext(id, n); err != nil {
			rec.Detail = fmt.Sprintf("drop: %v", err)
		} else {
			rec.Detail = fmt.Sprintf("dropping next %d messages", n)
		}
	case NetDelay:
		id := in.pickNode(r)
		extra := r.Drift
		if extra <= 0 {
			extra = sim.FromMicros(50)
		}
		window := r.Window
		if window <= 0 {
			window = sim.FromMicros(1000)
		}
		rec.Target = fmt.Sprintf("node%d", id)
		if err := in.fabric.DelaySpike(id, extra, window); err != nil {
			rec.Detail = fmt.Sprintf("delay: %v", err)
		} else {
			rec.Detail = fmt.Sprintf("+%v latency for %v", extra, window)
		}
	case MigrationKill:
		var mig *machine.Migration
		for _, m := range in.cluster.Migrations() {
			if m.Active() {
				mig = m
				break
			}
		}
		if mig == nil {
			rec.Target = "-"
			rec.Detail = "no active migration; skipped"
			break
		}
		id := mig.To
		if r.Target == "source" {
			id = mig.From
		}
		rec.Target = fmt.Sprintf("node%d", id)
		if err := in.fabric.Partition(id); err != nil {
			rec.Detail = fmt.Sprintf("migkill: %v", err)
		} else {
			rec.Detail = fmt.Sprintf("partitioned mid-migration of %q (%d->%d)", mig.VM, mig.From, mig.To)
		}
	}
	in.trace = append(in.trace, rec)
	in.stats.Injected++
	in.stats.ByKind[r.Kind]++
	in.mInjected.Inc()
	in.mByRule[ri].Inc()
}

// raiseSPI routes the injector's SPI to the core and raises it.
func (in *Injector) raiseSPI(core int) string {
	if err := in.raise(core); err != nil {
		return err.Error()
	}
	return raisedSPIDetail
}

// raisedSPIDetail is the success detail for every spurious-SPI raise;
// built once so the storm path never formats it.
var raisedSPIDetail = fmt.Sprintf("raised SPI %d", spuriousSPI)

// raise routes and pends the spurious SPI without building a detail
// string; the storm pulses discard the detail, so they take this path.
func (in *Injector) raise(core int) error {
	d := in.node.GIC
	if err := d.Route(spuriousSPI, core); err != nil {
		return fmt.Errorf("route SPI %d: %v", spuriousSPI, err)
	}
	if err := d.RaiseSPI(spuriousSPI); err != nil {
		return fmt.Errorf("raise SPI %d: %v", spuriousSPI, err)
	}
	return nil
}

// rogueHypercall issues one canned malformed hypercall in the VM's name
// and reports how the hypervisor answered. The containment property under
// test: every one of these returns an error; none reaches another VM's
// memory or takes the node down.
func (in *Injector) rogueHypercall(vm *hafnium.VM) string {
	base, size := vm.RAM()
	id := vm.ID()
	var err error
	var what string
	switch in.rng.Intn(4) {
	case 0:
		what = "share-to-self"
		_, _, err = in.hyp.ShareMemory(hafnium.MemShare, id, id, base, mem.PageSize, mmu.PermRW)
	case 1:
		what = "share-misaligned"
		_, _, err = in.hyp.ShareMemory(hafnium.MemLend, id, hafnium.PrimaryID, base+0x123, mem.PageSize, mmu.PermRW)
	case 2:
		what = "share-out-of-range-ipa"
		_, _, err = in.hyp.ShareMemory(hafnium.MemShare, id, hafnium.PrimaryID, base+size+0x10000000, mem.PageSize, mmu.PermRW)
	default:
		what = "reclaim-bad-handle"
		err = in.hyp.ReclaimMemory(id, 0xdead0000+uint64(in.rng.Intn(1<<16)))
	}
	if err == nil {
		return what + ": unexpectedly accepted"
	}
	return what + ": denied (" + err.Error() + ")"
}

// ParseSpec parses the CLI fault specification: comma-separated entries
// of the form kind[:target[:mean]], e.g.
//
//	crash:job:200ms,spurious::50ms,rogue:job:100ms,tlb::500ms
//
// target is a VM name (empty = rotate); mean is an inter-arrival time
// with an ns/us/ms/s suffix (default 1ms). IRQ and TLB kinds ignore the
// VM target and rotate over cores. The network kinds (partition, heal,
// netdrop, netdelay) take a node target of the form node<N> (empty =
// rotate over the fabric) and require an injector with SetFabric. The
// migkill kind takes target source or target (empty = target) — the
// migration side to partition — and requires an injector with
// SetCluster.
func ParseSpec(spec string) ([]Rule, error) {
	var rules []Rule
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.SplitN(entry, ":", 3)
		kind, err := ParseKind(parts[0])
		if err != nil {
			return nil, err
		}
		r := Rule{Kind: kind, Core: -1, Mean: sim.FromMicros(1000)}
		if len(parts) > 1 {
			r.Target = strings.TrimSpace(parts[1])
		}
		if len(parts) > 2 {
			d, err := parseDuration(strings.TrimSpace(parts[2]))
			if err != nil {
				return nil, fmt.Errorf("faults: entry %q: %w", entry, err)
			}
			r.Mean = d
		}
		if !needsVM(kind) && !needsFabric(kind) && kind != MigrationKill {
			r.Target = ""
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("faults: empty fault spec")
	}
	return rules, nil
}

// parseDuration reads a duration with an ns/us/ms/s suffix.
func parseDuration(s string) (sim.Duration, error) {
	units := []struct {
		suffix string
		scale  func(float64) sim.Duration
	}{
		{"ns", sim.FromNanos},
		{"us", sim.FromMicros},
		{"ms", func(v float64) sim.Duration { return sim.FromMicros(v * 1000) }},
		{"s", sim.FromSeconds},
	}
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			var v float64
			if _, err := fmt.Sscanf(strings.TrimSuffix(s, u.suffix), "%g", &v); err != nil {
				return 0, fmt.Errorf("bad duration %q", s)
			}
			if v <= 0 {
				return 0, fmt.Errorf("non-positive duration %q", s)
			}
			return u.scale(v), nil
		}
	}
	return 0, fmt.Errorf("duration %q needs an ns/us/ms/s suffix", s)
}
