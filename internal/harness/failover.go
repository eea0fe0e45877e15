package harness

import (
	"crypto/ed25519"
	"fmt"
	"strings"

	"khsim/internal/cluster"
	"khsim/internal/core"
	"khsim/internal/faults"
	"khsim/internal/hafnium"
	"khsim/internal/kitten"
	"khsim/internal/machine"
	"khsim/internal/net"
	"khsim/internal/noise"
	"khsim/internal/sim"
	"khsim/internal/tz"
)

// ClusterManifestText is the built-in 3-node failover scenario (the same
// text ships as manifests/cluster-3node.manifest): one replica VM per
// node with a watchdog restart policy whose backoff (20 ms) deliberately
// dwarfs the 4–8 ms election window, a leader kill mid-term, and a
// follower partition that heals before the run ends.
const ClusterManifestText = `
# Three-node rack: a Kitten primary per node scheduling a replicated
# attestation VM. The replication layer (internal/cluster) keeps the
# hash-chained attestation ledger consistent across nodes.

[cluster]
nodes = 3
link_latency_us = 50
link_bandwidth_mbps = 1000
election_timeout_us = 4000
election_jitter_us = 4000
heartbeat_us = 800
rpc_timeout_us = 1500
replica_vm = attest
run_ms = 400
propose_interval_us = 5000

[vm primary]
class = primary
vcpus = 2
memory_mb = 128

[vm attest]
class = secondary
vcpus = 1
memory_mb = 64
restart_policy = restart
max_restarts = 8
restart_backoff_us = 20000
restart_from_snapshot = true

# Kill whichever replica leads at 120 ms. The watchdog revives the VM
# 20 ms later -- far past the election window -- so leadership must move
# to a survivor, and the revived stale leader must step down.
[fault crash]
target = leader
at_ms = 120

# Partition the lowest-numbered surviving follower at 180 ms and heal it
# at 280 ms; after the heal it must catch up from the leader's log.
[fault partition]
target = follower
at_ms = 180

[fault heal]
target = partitioned
at_ms = 280
`

// FailoverReport is the outcome of one cluster failover experiment.
type FailoverReport struct {
	Seed  uint64
	Nodes int
	Run   sim.Duration

	// Failover: who led when the kill landed, who took over, and how
	// many candidacies it cost.
	LeaderBefore     int
	KillAt           sim.Time
	LeaderAfter      int
	ElectedAt        sim.Time
	FailoverElapsed  sim.Duration
	FailoverBound    sim.Duration // Check() requires FailoverElapsed <= this
	FailoverTimeouts uint64       // candidacies between kill and new leader
	TimeoutBound     uint64       // Check() requires FailoverTimeouts <= this

	// Partition schedule, -1 / zero when the manifest has none.
	PartitionNode int
	PartitionAt   sim.Time
	HealAt        sim.Time

	// Per-node end state.
	LogLens  []uint64
	Commits  []uint64
	Restarts []int
	VMStates []string

	// Safety properties.
	PrefixConsistent bool
	Converged        bool // identical logs, commit == len, chains verify
	ChainErrs        []string

	// Signed-proposal accounting: every payload a node offers the
	// replicated ledger is signed by that node's TEE identity and
	// verified before it is proposed. SignedEntries / UnsignedEntries
	// classify what actually replicated — an unsigned committed entry
	// means something bypassed the signing path.
	SigVerified     uint64
	SigFailed       uint64
	SignedEntries   uint64
	UnsignedEntries uint64

	Fabric      net.Stats
	Injected    faults.Stats
	EventsFired uint64

	harnessTrace []string // the harness's own annotations, rendered
	protoTrace   []cluster.TraceRecord
	injectTrace  []faults.Record
}

// Check enforces the experiment's headline properties: a new leader
// within the bounded election window, prefix-consistent ledgers on every
// node, and full convergence (healed and revived nodes caught up) by the
// end of the run.
func (r *FailoverReport) Check() error {
	if r.KillAt > 0 {
		if r.LeaderBefore < 0 {
			return fmt.Errorf("failover: no leader had been elected by the kill at %v", r.KillAt)
		}
		if r.LeaderAfter < 0 {
			return fmt.Errorf("failover: no new leader after the kill at %v", r.KillAt)
		}
		if r.LeaderAfter == r.LeaderBefore {
			return fmt.Errorf("failover: leadership never moved off n%d", r.LeaderBefore)
		}
		if r.FailoverElapsed > r.FailoverBound {
			return fmt.Errorf("failover: new leader took %v, bound is %v", r.FailoverElapsed, r.FailoverBound)
		}
		if r.FailoverTimeouts > r.TimeoutBound {
			return fmt.Errorf("failover: %d candidacies during failover, bound is %d", r.FailoverTimeouts, r.TimeoutBound)
		}
	}
	if !r.PrefixConsistent {
		return fmt.Errorf("failover: replica ledgers are not prefix-consistent")
	}
	if len(r.ChainErrs) > 0 {
		return fmt.Errorf("failover: %s", strings.Join(r.ChainErrs, "; "))
	}
	if !r.Converged {
		return fmt.Errorf("failover: replicas did not converge (lens=%v commits=%v)", r.LogLens, r.Commits)
	}
	if r.SigFailed > 0 || r.SigVerified == 0 {
		return fmt.Errorf("failover: signed proposals: %d verified, %d failed", r.SigVerified, r.SigFailed)
	}
	if r.UnsignedEntries > 0 {
		return fmt.Errorf("failover: %d replicated entries carry no signature", r.UnsignedEntries)
	}
	return nil
}

// Artifact renders the deterministic merged trace: config, the fault
// campaign as it resolved, the protocol trace, and the outcome. Two
// same-seed runs must produce byte-identical artifacts — this is the
// string the observability gate compares.
func (r *FailoverReport) Artifact() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster-failover seed=%d nodes=%d run=%v\n", r.Seed, r.Nodes, r.Run)
	fmt.Fprintf(&b, "--- fault campaign ---\n")
	for _, line := range r.harnessTrace {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	for _, rec := range r.injectTrace {
		b.WriteString(rec.String())
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "--- protocol trace ---\n")
	for _, t := range r.protoTrace {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "--- outcome ---\n")
	b.WriteString(r.Summary())
	return b.String()
}

// Summary renders the outcome block.
func (r *FailoverReport) Summary() string {
	var b strings.Builder
	if r.KillAt > 0 {
		fmt.Fprintf(&b, "leader n%d killed at %.6fs; n%d elected +%v later after %d candidacies\n",
			r.LeaderBefore, r.KillAt.Seconds(), r.LeaderAfter, r.FailoverElapsed, r.FailoverTimeouts)
	}
	if r.PartitionNode >= 0 {
		fmt.Fprintf(&b, "n%d partitioned %.6fs-%.6fs\n", r.PartitionNode, r.PartitionAt.Seconds(), r.HealAt.Seconds())
	}
	for i := range r.LogLens {
		fmt.Fprintf(&b, "n%d: log=%d commit=%d restarts=%d vm=%s\n",
			i, r.LogLens[i], r.Commits[i], r.Restarts[i], r.VMStates[i])
	}
	fmt.Fprintf(&b, "prefix-consistent=%v converged=%v\n", r.PrefixConsistent, r.Converged)
	fmt.Fprintf(&b, "signed proposals: verified=%d failed=%d replicated-signed=%d unsigned=%d\n",
		r.SigVerified, r.SigFailed, r.SignedEntries, r.UnsignedEntries)
	fmt.Fprintf(&b, "fabric: sent=%d delivered=%d dropped=%d (partition=%d in-flight=%d injected=%d) delayed=%d\n",
		r.Fabric.Sent, r.Fabric.Delivered, r.Fabric.Dropped(), r.Fabric.DroppedPartition,
		r.Fabric.DroppedPartitionInFlight, r.Fabric.DroppedInjected, r.Fabric.DelayedInjected)
	fmt.Fprintf(&b, "events fired=%d\n", r.EventsFired)
	return b.String()
}

// String renders the human-facing report (outcome only; Artifact has the
// full trace).
func (r *FailoverReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster failover: %d nodes, %v, seed %d\n", r.Nodes, r.Run, r.Seed)
	b.WriteString(r.Summary())
	if err := r.Check(); err != nil {
		fmt.Fprintf(&b, "FAILED: %v\n", err)
	} else {
		fmt.Fprintf(&b, "ok: failover bounded, ledger prefix-consistent, cluster reconverged\n")
	}
	return b.String()
}

// RunClusterFailover runs the built-in 3-node leader-kill + follower-
// partition scenario.
func RunClusterFailover(seed uint64) (*FailoverReport, error) {
	m, err := cluster.ParseManifest(ClusterManifestText)
	if err != nil {
		return nil, err
	}
	return RunClusterManifest(m, seed)
}

// RunClusterManifestMode is RunClusterManifest for callers that still
// pass an execution mode. The cluster runs only sequentially, so
// parallel must be false; true is an error.
func RunClusterManifestMode(m *cluster.ClusterManifest, seed uint64, parallel bool) (*FailoverReport, error) {
	if parallel {
		return nil, fmt.Errorf("harness: the parallel cluster mode was removed; run the cluster sequentially")
	}
	return RunClusterManifest(m, seed)
}

// clusterNodeConfig is the per-node hardware template for cluster
// experiments: smaller than the Pine A64 (2 cores, 256 MiB) so N-node
// runs stay cheap.
func clusterNodeConfig() machine.Config {
	return machine.Config{
		Cores:  2,
		Freq:   machine.DefaultFreq,
		DRAMMB: 256,
		SPIs:   128, // room for the fault injector's spurious-SPI line
		DRAM:   machine.DefaultDRAM(),
		Costs:  machine.DefaultCosts(machine.DefaultFreq),
	}
}

// manifestNetKind maps manifest fault kinds to injector kinds.
var manifestNetKind = map[string]faults.Kind{
	"partition": faults.NetPartition,
	"heal":      faults.NetHeal,
	"netdrop":   faults.NetDrop,
	"netdelay":  faults.NetDelay,
}

// RunClusterManifest builds the rack a cluster manifest describes, boots
// a full secure-node stack per node, runs the replication service and
// the fault campaign, and reports the failover outcome.
//
// Static-target network faults route through a faults.Injector (the same
// machinery `khsim faults` uses); dynamic targets — "leader",
// "follower", "partitioned" — resolve at fire time against live protocol
// state, which only the harness can see.
func RunClusterManifest(m *cluster.ClusterManifest, seed uint64) (*FailoverReport, error) {
	mc, err := machine.NewCluster(machine.ClusterConfig{
		Nodes: m.Nodes,
		Node:  clusterNodeConfig(),
		Seed:  seed,
		Link:  m.Link,
	})
	if err != nil {
		return nil, err
	}
	stacks := make([]*core.SecureNode, m.Nodes)
	replicaVMs := make([]*hafnium.VM, m.Nodes)
	engines := make([]*sim.Engine, m.Nodes)
	for i := 0; i < m.Nodes; i++ {
		n, err := core.NewSecureNode(core.Options{
			Node:      mc.Nodes[i],
			Manifest:  m.NodePlan,
			Scheduler: core.SchedulerKitten,
		})
		if err != nil {
			return nil, fmt.Errorf("harness: node %d: %w", i, err)
		}
		// The replica VM spins for longer than the run so crash/restart
		// cycles always have live work to kill.
		guest := kitten.NewGuest(kitten.DefaultParams())
		spin := noise.NewSelfish(fmt.Sprintf("attest%d", i), m.Run*4)
		if m.SpinChunk > 0 {
			spin.ChunkTime = m.SpinChunk
		}
		guest.Attach(0, spin)
		n.Machine.RegisterSnapshotter("proc."+spin.Name(), spin)
		if err := n.AttachGuest(m.ReplicaVM, guest, 1); err != nil {
			return nil, fmt.Errorf("harness: node %d: %w", i, err)
		}
		if err := n.Boot(); err != nil {
			return nil, fmt.Errorf("harness: node %d: %w", i, err)
		}
		vm, ok := n.Hyp.VMByName(m.ReplicaVM)
		if !ok {
			return nil, fmt.Errorf("harness: node %d: no VM %q", i, m.ReplicaVM)
		}
		stacks[i], replicaVMs[i], engines[i] = n, vm, n.Machine.Engine
	}

	pcfg := m.Protocol
	pcfg.Seed = seed
	svc, err := cluster.New(mc.Fabric, engines, pcfg)
	if err != nil {
		return nil, err
	}
	svc.SetMetrics(mc.Metrics)
	for i := range replicaVMs {
		vm := replicaVMs[i]
		svc.SetAlive(i, func() bool { return vm.State() == hafnium.VMRunning })
	}
	if err := svc.Start(); err != nil {
		return nil, err
	}

	rep := &FailoverReport{
		Seed:          seed,
		Nodes:         m.Nodes,
		Run:           m.Run,
		LeaderBefore:  -1,
		LeaderAfter:   -1,
		PartitionNode: -1,
		FailoverBound: 4 * (pcfg.ElectionMin + pcfg.ElectionJitter),
		TimeoutBound:  uint64(3 * m.Nodes),
	}
	note := func(at sim.Time, node int, format string, args ...any) {
		rep.harnessTrace = append(rep.harnessTrace, cluster.TraceLine(at, node, fmt.Sprintf(format, args...)))
	}

	// Every payload a node offers the replicated ledger — boot quote,
	// periodic re-attestation, lifecycle transition — goes through
	// signedPropose, so an unsigned (or forged) proposal can never enter
	// the shared log.
	signedPropose := signedProposer(seed, m.Nodes, svc, &rep.SigVerified, &rep.SigFailed)

	// Proposal load: real attestation evidence, not synthetic counters.
	// Each node's first proposal carries its measured-boot quote; every
	// subsequent one re-attests the node-local lifecycle ledger (length,
	// chain head, replica restart count), so watchdog restarts and
	// snapshot restores show up in the replicated log as soon as the node
	// can speak. Proposals stop before the end of the run so the tail
	// heartbeats can drain commits and catch-ups.
	stopAt := sim.Time(0).Add(m.Run - m.Run/8)
	for i := 0; i < m.Nodes; i++ {
		id, eng, n := i, engines[i], stacks[i]
		booted := false
		var tick func()
		tick = func() {
			if eng.Now() > stopAt {
				return
			}
			if !booted {
				booted = true
				att, err := n.Attestation()
				if err == nil {
					signedPropose(id, []byte(fmt.Sprintf("boot n%d pcr=%x", id, att.PCR[:8])))
				}
			} else {
				head := n.AttestLog.Head()
				signedPropose(id, []byte(fmt.Sprintf("attest n%d ledger=%d head=%x restarts=%d",
					id, n.AttestLog.Len(), head[:8], replicaVMs[id].Restarts())))
			}
			eng.AfterNamed(m.ProposeEvery, "failover.propose", tick)
		}
		// Stagger the first proposal per node so cadences interleave.
		first := m.ProposeEvery + sim.Duration(id)*(m.ProposeEvery/sim.Duration(m.Nodes))
		eng.ScheduleNamed(sim.Time(0).Add(first), "failover.propose", tick)
		// Lifecycle transitions (crash, restart, snapshot-restore,
		// quarantine) propose themselves the moment they land in the
		// node-local ledger. A crash proposal usually drops — the replica
		// VM just died, so the node cannot speak — and the restart record
		// that follows is the evidence that survives.
		n.OnLifecycle = func(ev hafnium.LifecycleEvent) {
			if eng.Now() > stopAt {
				return
			}
			signedPropose(id, []byte(fmt.Sprintf("lifecycle n%d %s vm=%s restarts=%d",
				id, ev.Kind, ev.VM, ev.Restarts)))
		}
	}

	// Fault campaign. Static node targets go through the injector (the
	// `khsim faults` path); dynamic ones resolve here at fire time.
	var rules []faults.Rule
	killVM := func(node int, at sim.Time) {
		// Hop onto the target node's engine so the crash (and the
		// watchdog timers it arms) are scheduled in that node's present.
		engines[node].ScheduleNamed(at, "failover.kill", func() {
			if err := stacks[node].Hyp.InjectVMFault(replicaVMs[node].ID(), "injected: cluster kill"); err != nil {
				note(at, node, "kill failed: %v", err)
				return
			}
			note(at, node, "killed %s VM (leader kill)", m.ReplicaVM)
		})
	}
	for _, f := range m.Faults {
		f := f
		at := sim.Time(0).Add(f.At)
		staticNode := -1
		if n, err := fmt.Sscanf(f.Target, "node%d", &staticNode); n != 1 || err != nil {
			staticNode = -1
		}
		if staticNode >= m.Nodes {
			return nil, fmt.Errorf("harness: fault target %q out of range for %d nodes", f.Target, m.Nodes)
		}
		if k, ok := manifestNetKind[f.Kind]; ok && staticNode >= 0 {
			rules = append(rules, faults.Rule{
				Kind: k, Target: f.Target, At: []sim.Time{at},
				Burst: f.Count, Drift: f.Extra, Window: f.Window,
			})
			continue
		}
		switch f.Kind {
		case "crash":
			// Resolve the victim on node 0 at fire time, then hop to it.
			engines[0].ScheduleNamed(at, "failover.resolve-kill", func() {
				victim := staticNode
				if victim < 0 {
					victim = svc.LeaderID()
					if f.Target == "follower" || victim < 0 {
						victim = pickFollower(svc, replicaVMs)
					}
				}
				// The failover bound is only meaningful when the kill
				// deposed the sitting leader.
				if victim == svc.LeaderID() && victim >= 0 {
					rep.LeaderBefore = victim
					rep.KillAt = at
				}
				killVM(victim, at)
			})
		case "partition":
			engines[0].ScheduleNamed(at, "failover.partition", func() {
				victim := staticNode
				if victim < 0 {
					if f.Target == "leader" {
						victim = svc.LeaderID()
					}
					if victim < 0 {
						victim = pickFollower(svc, replicaVMs)
					}
				}
				mc.Fabric.Partition(net.NodeID(victim))
				rep.PartitionNode, rep.PartitionAt = victim, at
				note(at, victim, "partitioned")
			})
		case "heal":
			engines[0].ScheduleNamed(at, "failover.heal", func() {
				for i := 0; i < m.Nodes; i++ {
					if mc.Fabric.Partitioned(net.NodeID(i)) {
						mc.Fabric.Heal(net.NodeID(i))
						rep.HealAt = at
						note(at, i, "healed")
					}
				}
			})
		default:
			return nil, fmt.Errorf("harness: fault kind %q needs a node<N> target", f.Kind)
		}
	}
	var in *faults.Injector
	if len(rules) > 0 {
		in, err = faults.New(mc.Nodes[0], stacks[0].Hyp, seed, rules)
		if err != nil {
			return nil, err
		}
		in.SetFabric(mc.Fabric)
		if err := in.Start(sim.Time(0).Add(m.Run)); err != nil {
			return nil, err
		}
	}

	mc.Run(m.Run)

	// Post-run analysis: the new leader is the first leadership record
	// traced after the kill; candidacies in between are the failover cost.
	for _, t := range svc.Trace() {
		if rep.KillAt <= 0 || t.At <= rep.KillAt || rep.LeaderAfter >= 0 {
			continue
		}
		switch t.Kind {
		case cluster.TraceCandidate:
			rep.FailoverTimeouts++
		case cluster.TraceLeader:
			rep.LeaderAfter = int(t.Node)
			rep.ElectedAt = t.At
			rep.FailoverElapsed = sim.Duration(t.At - rep.KillAt)
		}
	}
	logs := svc.Logs()
	// Classify what replicated: every node-originated payload must carry
	// the signature suffix the signing path stamps. The raft layer's own
	// leader no-op entries ("leader nX term T") are protocol bookkeeping,
	// not node proposals, and are exempt.
	for _, r := range logs[0].Slice(0, logs[0].Len()) {
		payload := string(r.Payload)
		switch {
		case strings.HasPrefix(payload, "leader n"):
		case strings.Contains(payload, " sig="):
			rep.SignedEntries++
		default:
			rep.UnsignedEntries++
		}
	}
	rep.PrefixConsistent = svc.PrefixConsistent()
	rep.Converged = true
	for i, l := range logs {
		rep.LogLens = append(rep.LogLens, l.Len())
		rep.Commits = append(rep.Commits, svc.Replica(i).Commit())
		rep.Restarts = append(rep.Restarts, replicaVMs[i].Restarts())
		rep.VMStates = append(rep.VMStates, replicaVMs[i].State().String())
		if err := l.Verify(); err != nil {
			rep.ChainErrs = append(rep.ChainErrs, fmt.Sprintf("n%d: %v", i, err))
		}
		if l.Len() != logs[0].Len() || l.Head() != logs[0].Head() || svc.Replica(i).Commit() != l.Len() {
			rep.Converged = false
		}
	}
	rep.Fabric = mc.Fabric.Stats()
	if in != nil {
		rep.Injected = in.Stats()
		rep.injectTrace = in.Trace()
	}
	rep.EventsFired = mc.Fired()
	rep.protoTrace = svc.Trace()
	return rep, nil
}

// signedProposer returns the path by which node id offers a payload to
// svc's replicated ledger. Every node has a signing identity derived
// from seed, and one keyring holds every node's verifying key, as the
// launch path would distribute them. A payload is signed by its node's
// identity and checked against the key of the node the record names
// before it leaves the node. The check counts into verified or failed,
// and only a record that passes is proposed, with the first 8 bytes of
// its signature appended.
func signedProposer(seed uint64, nodes int, svc *cluster.Service, verified, failed *uint64) func(id int, payload []byte) {
	signers := make([]*tz.Signer, nodes)
	keys := make([]ed25519.PublicKey, nodes)
	for i := range signers {
		signers[i] = tz.NewSigner(seed, i)
		keys[i] = signers[i].Public()
	}
	keyring := tz.NewKeyring(keys...)
	return func(id int, payload []byte) {
		rec := tz.SignRecord(signers[id], id, payload)
		if err := keyring.Verify(rec); err != nil {
			*failed++
			return
		}
		*verified++
		svc.Propose(id, []byte(fmt.Sprintf("%s sig=%x", payload, rec.Sig[:8])))
	}
}

// pickFollower returns the lowest-numbered live replica that is not the
// current leader (falling back to the last node).
func pickFollower(svc *cluster.Service, vms []*hafnium.VM) int {
	for i := 0; i < svc.Replicas(); i++ {
		if svc.Replica(i).Role() != cluster.Leader && vms[i].State() == hafnium.VMRunning {
			return i
		}
	}
	return svc.Replicas() - 1
}
