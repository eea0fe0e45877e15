package harness

import (
	"bytes"
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
)

// Live-migration experiment: a 3-node rack where node 0 runs a job VM
// and the other nodes hold standby slots for it, the attestation ledger
// is replicated Raft-style (as in the failover experiment), and the
// cluster live-migrates the job from node 0 to node 1 while it runs.
// Each cell of the sweep varies the job's working-set size — the knob
// that dominates stop-and-copy downtime — and one cell partitions the
// target mid-transfer to exercise the fault contract: exactly one live
// copy of the job, whichever way the transfer resolves. Every lifecycle
// record proposed to the replicated ledger is signed with the node's
// deterministic ed25519 identity and verified before proposal, so the
// migration's provenance (released on the source, admitted on the
// target) is cryptographically attributable.

// migWorkingSets is the clean-cell sweep: job working sets in stage-2
// pages (1 MiB, 4 MiB, 16 MiB of hot data in a 16 MiB VM).
var migWorkingSets = []int{256, 1024, 4096}

// migKillWS is the working set used by the fault cell.
const migKillWS = 1024

// MigrationCell is one cell of the sweep: its parameters and outcome.
type MigrationCell struct {
	WorkingSetPages int
	Kill            bool

	Outcome    machine.MigrationOutcome
	Downtime   sim.Duration
	Bytes      uint64
	Rounds     []machine.MigrationRound
	Retries    int
	MigErr     string
	LiveCopies int // job VMs in state running, across all nodes
	LiveOn     int // node index running the job (-1 if none)

	SrcStats hafnium.Stats
	DstStats hafnium.Stats

	// Replicated-ledger evidence: the migration lifecycle records found
	// in the converged committed log.
	LedgerOut, LedgerIn, LedgerAbort bool
	Converged                        bool
	ChainErrs                        []string

	Fabric      net.Stats
	EventsFired uint64
	injectTrace []faults.Record
	protoTail   string
}

// MigrationReport is the outcome of the full sweep.
type MigrationReport struct {
	Seed  uint64
	Nodes int
	Run   sim.Duration
	Cells []MigrationCell

	// Signed-record accounting across all cells.
	SigVerified uint64
	SigFailed   uint64
}

// Check enforces the experiment's headline properties.
func (r *MigrationReport) Check() error {
	if r.SigFailed > 0 {
		return fmt.Errorf("migration: %d ledger records failed signature verification", r.SigFailed)
	}
	if r.SigVerified == 0 {
		return fmt.Errorf("migration: no signed ledger records verified")
	}
	var prevDowntime sim.Duration
	var prevWS int
	for i := range r.Cells {
		c := &r.Cells[i]
		name := fmt.Sprintf("cell ws=%d kill=%v", c.WorkingSetPages, c.Kill)
		if c.LiveCopies != 1 {
			return fmt.Errorf("migration: %s: %d live copies of the job VM, want exactly 1", name, c.LiveCopies)
		}
		if !c.Converged {
			return fmt.Errorf("migration: %s: replicated ledgers did not converge", name)
		}
		if len(c.ChainErrs) > 0 {
			return fmt.Errorf("migration: %s: %s", name, strings.Join(c.ChainErrs, "; "))
		}
		if c.Kill {
			// The fault cell must resolve — either way — with the single
			// live copy on the matching side, and the resolution recorded.
			switch c.Outcome {
			case machine.MigrationAborted:
				if c.LiveOn != 0 {
					return fmt.Errorf("migration: %s: aborted but job lives on node %d, want source 0", name, c.LiveOn)
				}
				if !c.LedgerAbort {
					return fmt.Errorf("migration: %s: abort not recorded in replicated ledger", name)
				}
			case machine.MigrationCompleted:
				if c.LiveOn != 1 {
					return fmt.Errorf("migration: %s: completed but job lives on node %d, want target 1", name, c.LiveOn)
				}
			default:
				return fmt.Errorf("migration: %s: unresolved outcome %v", name, c.Outcome)
			}
			continue
		}
		if c.Outcome != machine.MigrationCompleted {
			return fmt.Errorf("migration: %s: outcome %v (%s), want completed", name, c.Outcome, c.MigErr)
		}
		if c.LiveOn != 1 {
			return fmt.Errorf("migration: %s: job lives on node %d, want target 1", name, c.LiveOn)
		}
		if c.Downtime <= 0 {
			return fmt.Errorf("migration: %s: downtime %v, want positive", name, c.Downtime)
		}
		if c.SrcStats.MigratedOut != 1 || c.DstStats.MigratedIn != 1 {
			return fmt.Errorf("migration: %s: migrated-out=%d migrated-in=%d, want 1/1",
				name, c.SrcStats.MigratedOut, c.DstStats.MigratedIn)
		}
		if !c.LedgerOut || !c.LedgerIn {
			return fmt.Errorf("migration: %s: ledger evidence out=%v in=%v, want both", name, c.LedgerOut, c.LedgerIn)
		}
		if prevWS > 0 && c.Downtime < prevDowntime {
			return fmt.Errorf("migration: downtime not monotone in working set: ws=%d took %v < ws=%d's %v",
				c.WorkingSetPages, c.Downtime, prevWS, prevDowntime)
		}
		prevDowntime, prevWS = c.Downtime, c.WorkingSetPages
	}
	return nil
}

// Artifact renders the deterministic trace the observability gate
// compares across same-seed runs.
func (r *MigrationReport) Artifact() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster-migration seed=%d nodes=%d run=%v\n", r.Seed, r.Nodes, r.Run)
	for i := range r.Cells {
		c := &r.Cells[i]
		fmt.Fprintf(&b, "--- cell ws=%d kill=%v ---\n", c.WorkingSetPages, c.Kill)
		for _, rec := range c.injectTrace {
			b.WriteString(rec.String())
			b.WriteByte('\n')
		}
		b.WriteString(c.protoTail)
		b.WriteString(r.cellSummary(c))
	}
	fmt.Fprintf(&b, "--- totals ---\nsigned records: verified=%d failed=%d\n", r.SigVerified, r.SigFailed)
	return b.String()
}

func (r *MigrationReport) cellSummary(c *MigrationCell) string {
	var b strings.Builder
	for _, rd := range c.Rounds {
		fmt.Fprintf(&b, "round %d: %d pages, %d bytes\n", rd.Round, rd.Pages, rd.Bytes)
	}
	fmt.Fprintf(&b, "outcome=%v downtime=%v bytes=%d retries=%d\n", c.Outcome, c.Downtime, c.Bytes, c.Retries)
	if c.MigErr != "" {
		fmt.Fprintf(&b, "resolution: %s\n", c.MigErr)
	}
	fmt.Fprintf(&b, "job: %d live cop(y/ies), on node %d\n", c.LiveCopies, c.LiveOn)
	fmt.Fprintf(&b, "ledger: out=%v in=%v abort=%v converged=%v\n", c.LedgerOut, c.LedgerIn, c.LedgerAbort, c.Converged)
	fmt.Fprintf(&b, "fabric: sent=%d delivered=%d dropped=%d (partition=%d in-flight=%d injected=%d) delayed=%d\n",
		c.Fabric.Sent, c.Fabric.Delivered, c.Fabric.Dropped(), c.Fabric.DroppedPartition,
		c.Fabric.DroppedPartitionInFlight, c.Fabric.DroppedInjected, c.Fabric.DelayedInjected)
	fmt.Fprintf(&b, "events fired=%d\n", c.EventsFired)
	return b.String()
}

// Summary renders the downtime-vs-working-set table and the fault cell.
func (r *MigrationReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-6s %-12s %-12s %-8s %s\n", "ws-pages", "kill", "downtime", "bytes", "rounds", "outcome")
	for i := range r.Cells {
		c := &r.Cells[i]
		fmt.Fprintf(&b, "%-10d %-6v %-12v %-12d %-8d %v\n",
			c.WorkingSetPages, c.Kill, c.Downtime, c.Bytes, len(c.Rounds), c.Outcome)
	}
	fmt.Fprintf(&b, "signed records: verified=%d failed=%d\n", r.SigVerified, r.SigFailed)
	return b.String()
}

// String renders the human-facing report.
func (r *MigrationReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "live migration: %d nodes, %v per cell, seed %d\n", r.Nodes, r.Run, r.Seed)
	b.WriteString(r.Summary())
	if err := r.Check(); err != nil {
		fmt.Fprintf(&b, "FAILED: %v\n", err)
	} else {
		fmt.Fprintf(&b, "ok: downtime monotone in working set, one live copy per cell, signed ledger converged\n")
	}
	return b.String()
}

// RunMigrationSuite runs the full sweep: the clean working-set cells
// plus the mid-transfer kill cell. Every cell's rack has the same seed,
// so the nodes' signing identities are derived once for all of them.
func RunMigrationSuite(seed uint64) (*MigrationReport, error) { return runMigrationSuite(seed, nil) }

// runMigrationSuite is RunMigrationSuite, handing each cell's stacks to
// cellRan, when set, once the cell's run ends (a test reads every node's
// hypervisor and registry there).
func runMigrationSuite(seed uint64, cellRan func([]*core.SecureNode)) (*MigrationReport, error) {
	rep := &MigrationReport{Seed: seed, Nodes: 3, Run: sim.FromMicros(120_000)}
	ids := newIdentities(seed, rep.Nodes)
	for _, ws := range migWorkingSets {
		if err := runMigrationCell(rep, ids, ws, false, cellRan); err != nil {
			return nil, err
		}
	}
	if err := runMigrationCell(rep, ids, migKillWS, true, cellRan); err != nil {
		return nil, err
	}
	return rep, nil
}

// migNodeManifest renders node i's partition plan: the job VM runs on
// the source node and is a standby landing pad everywhere else.
func migNodeManifest(node, ws int) string {
	var b strings.Builder
	b.WriteString(`
routing = via-primary
tlb = vmid-tagged

[vm primary]
class = primary
vcpus = 2
memory_mb = 64

[vm attest]
class = secondary
vcpus = 1
memory_mb = 32

[vm job]
class = secondary
vcpus = 1
memory_mb = 16
`)
	fmt.Fprintf(&b, "working_set_pages = %d\n", ws)
	if node != 0 {
		b.WriteString("standby = true\n")
	}
	return b.String()
}

// migNodeConfig is the migration cells' hardware template: one more
// core than the failover rack so each secondary (the attest replica and
// the job) owns a core outright — Kitten runs secondaries to
// completion, so co-locating them would starve the job of the CPU time
// the dirty-page model meters.
func migNodeConfig() machine.Config {
	cfg := clusterNodeConfig()
	cfg.Cores = 3
	return cfg
}

// runMigrationCell builds a fresh 3-node rack whose nodes sign with ids,
// migrates the job VM from node 0 to node 1 mid-run, and appends the
// cell outcome to rep.
func runMigrationCell(rep *MigrationReport, ids *identities, ws int, kill bool, cellRan func([]*core.SecureNode)) error {
	nodes := rep.Nodes
	run := rep.Run
	seed := rep.Seed
	mc, err := machine.NewCluster(machine.ClusterConfig{
		Nodes: nodes,
		Node:  migNodeConfig(),
		Seed:  seed,
	})
	if err != nil {
		return err
	}

	stacks := make([]*core.SecureNode, nodes)
	replicaVMs := make([]*hafnium.VM, nodes)
	engines := make([]*sim.Engine, nodes)
	migrators := make([]machine.MigrationEndpoint, nodes)
	for i := 0; i < nodes; i++ {
		n, err := core.NewSecureNode(core.Options{
			Node:      mc.Nodes[i],
			Manifest:  migNodeManifest(i, ws),
			Scheduler: core.SchedulerKitten,
		})
		if err != nil {
			return fmt.Errorf("harness: node %d: %w", i, err)
		}
		attestGuest := kitten.NewGuest(kitten.DefaultParams())
		attestSpin := noise.NewSelfish(fmt.Sprintf("attest%d", i), run*4)
		attestGuest.Attach(0, attestSpin)
		n.Machine.RegisterSnapshotter("proc."+attestSpin.Name(), attestSpin)
		if err := n.AttachGuest("attest", attestGuest, 1); err != nil {
			return fmt.Errorf("harness: node %d: %w", i, err)
		}
		// The job workload is identical on every node: on standbys it is
		// the landing pad whose state the imported image overwrites.
		jobGuest := kitten.NewGuest(kitten.DefaultParams())
		jobSpin := noise.NewSelfish("job", run*4)
		jobGuest.Attach(0, jobSpin)
		n.Machine.RegisterSnapshotter("proc.job", jobSpin)
		if err := n.AttachGuest("job", jobGuest, 2); err != nil {
			return fmt.Errorf("harness: node %d: %w", i, err)
		}
		if err := n.Boot(); err != nil {
			return fmt.Errorf("harness: node %d: %w", i, err)
		}
		vm, ok := n.Hyp.VMByName("attest")
		if !ok {
			return fmt.Errorf("harness: node %d: no attest VM", i)
		}
		stacks[i], replicaVMs[i], engines[i] = n, vm, n.Machine.Engine
		migrators[i] = hafnium.NewMigrator(n.Hyp)
	}

	pcfg := cluster.DefaultConfig(seed)
	svc, err := cluster.New(mc.Fabric, engines, pcfg)
	if err != nil {
		return err
	}
	svc.SetMetrics(mc.Metrics)
	for i := range replicaVMs {
		vm := replicaVMs[i]
		svc.SetAlive(i, func() bool { return vm.State() == hafnium.VMRunning })
	}
	if err := svc.Start(); err != nil {
		return err
	}
	if err := mc.EnableMigration(migrators); err != nil {
		return err
	}

	// Lifecycle records (including the migration transitions) are signed,
	// verified and proposed to the replicated ledger the moment they land
	// in the node-local one.
	signedPropose := ids.proposer(svc, &rep.SigVerified, &rep.SigFailed)
	stopAt := sim.Time(0).Add(run - run/8)
	for i := 0; i < nodes; i++ {
		id, eng := i, engines[i]
		stacks[i].OnLifecycle = func(ev hafnium.LifecycleEvent) {
			if eng.Now() > stopAt {
				return
			}
			signedPropose(id, []byte(fmt.Sprintf("lifecycle n%d %s vm=%s restarts=%d", id, ev.Kind, ev.VM, ev.Restarts)))
		}
	}

	// The migration: job VM, node 0 -> node 1, kicked off at 20 ms (well
	// after boot and the first election settle).
	mig, err := mc.Migrate("job", 0, 1, sim.Time(0).Add(sim.FromMicros(20_000)))
	if err != nil {
		return err
	}

	// Fault campaign for the kill cell: partition the migration target
	// mid-round-0 (the full-RAM pre-copy is still draining at 25 ms) and
	// heal it at 60 ms so the commit handshake can resolve the transfer.
	var in *faults.Injector
	if kill {
		rules := []faults.Rule{
			{Kind: faults.MigrationKill, Target: "target", At: []sim.Time{sim.Time(0).Add(sim.FromMicros(25_000))}},
			{Kind: faults.NetHeal, Target: "node1", At: []sim.Time{sim.Time(0).Add(sim.FromMicros(60_000))}},
		}
		in, err = faults.New(mc.Nodes[0], stacks[0].Hyp, seed, rules)
		if err != nil {
			return err
		}
		in.SetCluster(mc)
		if err := in.Start(sim.Time(0).Add(run)); err != nil {
			return err
		}
	}

	mc.Run(run)
	if cellRan != nil {
		cellRan(stacks)
	}

	cell := MigrationCell{
		WorkingSetPages: ws,
		Kill:            kill,
		Outcome:         mig.Outcome(),
		Downtime:        mig.Downtime(),
		Bytes:           mig.TotalBytes(),
		Rounds:          mig.Rounds(),
		Retries:         mig.Retries(),
		LiveOn:          -1,
		SrcStats:        stacks[0].Hyp.Stats(),
		DstStats:        stacks[1].Hyp.Stats(),
		Fabric:          mc.Fabric.Stats(),
		EventsFired:     mc.Fired(),
	}
	if err := mig.Err(); err != nil {
		cell.MigErr = err.Error()
	}
	for i := 0; i < nodes; i++ {
		if vm, ok := stacks[i].Hyp.VMByName("job"); ok && vm.State() == hafnium.VMRunning {
			cell.LiveCopies++
			cell.LiveOn = i
		}
	}

	// Ledger evidence: migration lifecycle records in the committed,
	// converged replicated log.
	logs := svc.Logs()
	cell.Converged = svc.PrefixConsistent()
	for i, l := range logs {
		if err := l.Verify(); err != nil {
			cell.ChainErrs = append(cell.ChainErrs, fmt.Sprintf("n%d: %v", i, err))
		}
		if l.Len() != logs[0].Len() || l.Head() != logs[0].Head() || svc.Replica(i).Commit() != l.Len() {
			cell.Converged = false
		}
	}
	for _, r := range logs[0].Slice(0, logs[0].Len()) {
		switch {
		case bytes.Contains(r.Payload, []byte(" migrate-out ")):
			cell.LedgerOut = true
		case bytes.Contains(r.Payload, []byte(" migrate-in ")):
			cell.LedgerIn = true
		case bytes.Contains(r.Payload, []byte(" migrate-abort ")):
			cell.LedgerAbort = true
		}
	}
	if in != nil {
		cell.injectTrace = in.Trace()
	}
	// The protocol trace tail anchors the artifact without ballooning it:
	// the last few replication events show the post-migration steady
	// state.
	trace := svc.Trace()
	tail := trace
	if len(tail) > 8 {
		tail = tail[len(tail)-8:]
	}
	var tb strings.Builder
	for _, t := range tail {
		tb.WriteString(t.String())
		tb.WriteByte('\n')
	}
	cell.protoTail = tb.String()

	rep.Cells = append(rep.Cells, cell)
	return nil
}
