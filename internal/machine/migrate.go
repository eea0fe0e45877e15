package machine

import (
	"fmt"

	"khsim/internal/mem"
	"khsim/internal/net"
	"khsim/internal/sim"
)

// This file is the cluster-level live-migration driver. The hypervisor
// side (pause, extract, admit, abort, release — see hafnium's Migrator)
// is reached through the MigrationEndpoint interface so machine does not
// import hafnium; the transfer itself rides the fabric as chunked
// messages that pay real serialization and latency, with pre-copy rounds
// paced off the link's busy cursor.
//
// Safety contract (the one the fault injector attacks): a migrating VM
// resumes at the source or completes at the target, NEVER both. The
// source releases its copy only on a positive commit acknowledgement
// from the target; if the acknowledgement never comes the source stays
// paused (Unresolved) rather than risk a second live copy, and a late
// ack still resolves it. The target admits only a complete image —
// every chunk plus the VM state — and discards otherwise.
//
// Driver state (in-flight rounds, retry counters) lives outside the
// per-node engines, so Cluster.Snapshot does not capture a migration in
// progress: fork timelines before Migrate's startAt or after the
// migration resolves.

// MigrationStamp is an endpoint-issued checkpoint of guest progress: CPU
// time accrued and the stage-2 table generation. DirtyPages(since) uses
// the pair to estimate how many pages the guest touched since the stamp.
type MigrationStamp struct {
	CPU sim.Duration
	Gen uint64
}

// VMMigrationInfo describes the migration-relevant shape of a VM.
type VMMigrationInfo struct {
	RAMBytes        uint64
	WorkingSetPages uint64
	Stamp           MigrationStamp
}

// MigrationEndpoint is the per-node hypervisor interface the driver
// calls down into. VMs are addressed by manifest name; images are opaque
// to the driver (the source's ExtractVM output is handed verbatim to the
// target's AdmitVM, or back to AbortMigration for rollback).
type MigrationEndpoint interface {
	VMInfo(vm string) (VMMigrationInfo, error)
	// PauseVM begins stop-and-copy: the VM stops executing but its state
	// is preserved. VCPU ejection is asynchronous — poll VMQuiesced.
	PauseVM(vm string) error
	VMQuiesced(vm string) bool
	// ExtractVM carves the portable image out of a paused, quiesced VM.
	ExtractVM(vm string) (img any, imgBytes int, err error)
	// AbortMigration rolls a paused VM back into service from its image.
	AbortMigration(vm string, img any, reason string) error
	// AdmitVM imports an image into a standby slot and resumes it.
	AdmitVM(vm string, img any) error
	// ReleaseVM scrubs and retires the source copy after the target
	// committed.
	ReleaseVM(vm string) error
	// DirtyPages estimates pages dirtied since the stamp and returns a
	// fresh stamp for the next round.
	DirtyPages(vm string, since MigrationStamp) (pages uint64, now MigrationStamp)
}

// The transfer's protocol constants.
const (
	// migChunkBytes sizes each RAM chunk message.
	migChunkBytes = 256 << 10
	// migMaxPrecopyRounds bounds dirty-page rounds after the full round
	// 0; then stop-and-copy regardless of dirty count.
	migMaxPrecopyRounds = 3
	// migStopCopyPages triggers stop-and-copy early once a round's dirty
	// estimate falls to this many pages.
	migStopCopyPages = 64
	// migPollInterval paces the quiesce poll after PauseVM.
	migPollInterval = 5 * sim.Microsecond
	// migAckTimeout arms the commit-acknowledgement timer; it doubles
	// per retry.
	migAckTimeout = 2 * sim.Millisecond
	// migMaxRetries bounds commit retransmissions; exhaustion leaves the
	// migration Unresolved with the source still paused.
	migMaxRetries = 20
)

// MigrationOutcome is a transfer's terminal (or pending) disposition.
type MigrationOutcome int

// Outcomes.
const (
	// MigrationPending: the transfer has not resolved yet.
	MigrationPending MigrationOutcome = iota
	// MigrationCompleted: the VM runs on the target; the source scrubbed.
	MigrationCompleted
	// MigrationAborted: the transfer failed; the VM resumed on the source.
	MigrationAborted
	// MigrationUnresolved: commit retries exhausted with no answer. The
	// source cannot tell "commit lost" from "ack lost" — the VM may
	// already run on the target — so it stays paused rather than risk two
	// live copies. A late acknowledgement still completes the migration.
	MigrationUnresolved
)

// String names the outcome in lower case, as reports print it.
func (o MigrationOutcome) String() string {
	switch o {
	case MigrationPending:
		return "pending"
	case MigrationCompleted:
		return "completed"
	case MigrationAborted:
		return "aborted"
	case MigrationUnresolved:
		return "unresolved"
	default:
		return fmt.Sprintf("MigrationOutcome(%d)", int(o))
	}
}

// MigrationRound records one pre-copy (or final stop-and-copy) round:
// pages shipped and wire bytes paid (headers included).
type MigrationRound struct {
	Round int
	Pages uint64
	Bytes uint64
}

// migHeaderBytes is the fixed wire overhead per migration message.
const migHeaderBytes = 64

// Wire payloads. Like the replication protocol, payloads travel as Go
// values; Bytes on the message models the serialized size.
type migBegin struct {
	ID       uint64
	VM       string
	RAMBytes uint64
}

type migChunk struct {
	ID    uint64
	Seq   uint64
	Round int
}

type migState struct {
	ID       uint64
	VM       string
	Img      any
	ImgBytes int
}

type migCommit struct {
	ID    uint64
	Total uint64 // chunk messages the target must hold before admitting
}

type migDone struct {
	ID        uint64
	ResumedAt sim.Time
}

type migNack struct {
	ID        uint64
	Got, Want uint64
	Reason    string
}

// Migration tracks one live transfer end to end. All fields mutate
// inside source- or target-engine events; read results after the cluster
// run resolves the transfer.
type Migration struct {
	ID       uint64
	VM       string
	From, To net.NodeID

	c *Cluster

	outcome    MigrationOutcome
	err        error
	rounds     []MigrationRound
	totalBytes uint64
	retries    int
	chunksSent uint64
	ramBytes   uint64
	stamp      MigrationStamp
	img        any
	imgBytes   int
	paused     bool
	released   bool
	// pendingDirty is the dirty set measured at the stop decision: pages
	// dirtied while the last pre-copy round drained, which still need the
	// wire. The final round ships them (plus the sliver dirtied during
	// the pause itself).
	pendingDirty uint64
	pausedAt     sim.Time
	resumedAt    sim.Time
	downtime     sim.Duration
	ackSeq       int // arms/disarms the commit ack timer across retries
}

// Outcome reports the transfer's disposition.
func (m *Migration) Outcome() MigrationOutcome { return m.outcome }

// Active reports whether the transfer is still in flight.
func (m *Migration) Active() bool { return m.outcome == MigrationPending }

// Err reports why the transfer aborted or stalled (nil when completed).
func (m *Migration) Err() error { return m.err }

// Rounds lists the pre-copy and stop-and-copy rounds shipped.
func (m *Migration) Rounds() []MigrationRound { return m.rounds }

// TotalBytes is the wire bytes the transfer paid, headers included.
func (m *Migration) TotalBytes() uint64 { return m.totalBytes }

// Retries counts commit retransmissions.
func (m *Migration) Retries() int { return m.retries }

// ResumedAt is when the VM resumed — on the target (completed) or back
// on the source (aborted).
func (m *Migration) ResumedAt() sim.Time { return m.resumedAt }

// Downtime is the blackout window: pause on the source to resume on
// whichever node ended up running the VM.
func (m *Migration) Downtime() sim.Duration { return m.downtime }

// migRx is the target-side record of one inbound transfer.
type migRx struct {
	vm        string
	from      net.NodeID
	chunks    uint64
	img       any
	haveState bool
	resumed   bool
	resumedAt sim.Time
	discarded bool
}

// migPort is one node's migration protocol endpoint, bound to the
// fabric's "mig." kind prefix (the replication service keeps the default
// handler). It serves both roles: inbound transfer state when the node
// is a target, and done/nack routing back to the driver when it is a
// source.
type migPort struct {
	c  *Cluster
	id net.NodeID
	rx map[uint64]*migRx
}

// EnableMigration installs per-node migration endpoints (index = node
// ID) and binds the migration wire protocol to each node's "mig." kind
// prefix. Call once, after NewCluster and any Fabric.Bind for other
// protocols.
func (c *Cluster) EnableMigration(eps []MigrationEndpoint) error {
	if len(eps) != len(c.Nodes) {
		return fmt.Errorf("machine: %d migration endpoints for %d nodes", len(eps), len(c.Nodes))
	}
	if c.migPorts != nil {
		return fmt.Errorf("machine: migration already enabled")
	}
	c.migEPs = eps
	c.migByID = make(map[uint64]*Migration)
	for i := range c.Nodes {
		p := &migPort{c: c, id: net.NodeID(i), rx: make(map[uint64]*migRx)}
		if err := c.Fabric.BindKind(net.NodeID(i), "mig.", p.receive); err != nil {
			return err
		}
		c.migPorts = append(c.migPorts, p)
	}
	return nil
}

// Migrate schedules a live migration of VM vm from node `from` to the
// standby slot of the same name on node `to`. The transfer starts at
// startAt on the source engine (a time in the past starts immediately)
// and resolves asynchronously; inspect the returned Migration after the
// cluster run.
func (c *Cluster) Migrate(vm string, from, to net.NodeID, startAt sim.Time) (*Migration, error) {
	if c.migPorts == nil {
		return nil, fmt.Errorf("machine: call EnableMigration before Migrate")
	}
	if int(from) < 0 || int(from) >= len(c.Nodes) || int(to) < 0 || int(to) >= len(c.Nodes) {
		return nil, fmt.Errorf("machine: migration endpoints %d->%d out of range", from, to)
	}
	if from == to {
		return nil, fmt.Errorf("machine: migration from node %d to itself", from)
	}
	c.migSeq++
	m := &Migration{ID: c.migSeq, VM: vm, From: from, To: to, c: c}
	c.migs = append(c.migs, m)
	c.migByID[m.ID] = m
	eng := c.Nodes[from].Engine
	if startAt < eng.Now() {
		startAt = eng.Now()
	}
	eng.ScheduleNamed(startAt, "mig.start", m.start)
	return m, nil
}

// Migrations lists every transfer ever scheduled, in creation order.
func (c *Cluster) Migrations() []*Migration { return c.migs }

func (m *Migration) eng() *sim.Engine      { return m.c.Nodes[m.From].Engine }
func (m *Migration) ep() MigrationEndpoint { return m.c.migEPs[m.From] }

func (m *Migration) send(kind string, payload any, bytes int) {
	// Loss is silent by design; the commit handshake is what detects it.
	_ = m.c.Fabric.Send(m.From, m.To, kind, payload, bytes)
}

func (m *Migration) fail(err error) {
	m.outcome = MigrationAborted
	m.err = err
}

// start runs on the source engine at startAt: stamp the VM, announce the
// transfer, ship all of RAM as round 0 and pace the next round off the
// link cursor.
func (m *Migration) start() {
	info, err := m.ep().VMInfo(m.VM)
	if err != nil {
		m.fail(err)
		return
	}
	m.ramBytes = info.RAMBytes
	m.stamp = info.Stamp
	m.send("mig.begin", migBegin{ID: m.ID, VM: m.VM, RAMBytes: info.RAMBytes}, migHeaderBytes)
	m.totalBytes += migHeaderBytes
	m.sendRound(0, info.RAMBytes/mem.PageSize)
	m.scheduleRoundEnd(1)
}

// sendRound ships pages as migChunkBytes-sized messages and records the
// round. The guest keeps running (and dirtying) while the link drains.
func (m *Migration) sendRound(round int, pages uint64) {
	var sent uint64
	for remaining := pages * mem.PageSize; remaining > 0; {
		n := uint64(migChunkBytes)
		if n > remaining {
			n = remaining
		}
		m.chunksSent++
		m.send("mig.chunk", migChunk{ID: m.ID, Seq: m.chunksSent, Round: round}, int(n)+migHeaderBytes)
		sent += n + migHeaderBytes
		remaining -= n
	}
	m.totalBytes += sent
	m.rounds = append(m.rounds, MigrationRound{Round: round, Pages: pages, Bytes: sent})
}

// scheduleRoundEnd wakes the driver when the directed link has drained
// everything queued on it — including traffic from other protocols — so
// each round's dirty estimate covers exactly the time the copy took.
func (m *Migration) scheduleRoundEnd(next int) {
	eng := m.eng()
	at := m.c.Fabric.LinkBusyUntil(m.From, m.To).Add(m.c.Fabric.Link().Latency)
	if at < eng.Now() {
		at = eng.Now()
	}
	eng.ScheduleNamed(at, "mig.round", func() { m.roundEnd(next) })
}

func (m *Migration) roundEnd(round int) {
	if m.outcome != MigrationPending {
		return
	}
	dirty, stamp := m.ep().DirtyPages(m.VM, m.stamp)
	m.stamp = stamp
	if dirty <= migStopCopyPages || round > migMaxPrecopyRounds {
		m.pendingDirty = dirty
		m.stopAndCopy()
		return
	}
	m.sendRound(round, dirty)
	m.scheduleRoundEnd(round + 1)
}

// stopAndCopy pauses the VM — the downtime clock starts here — and polls
// for VCPU quiesce before the final copy.
func (m *Migration) stopAndCopy() {
	if err := m.ep().PauseVM(m.VM); err != nil {
		m.fail(err)
		return
	}
	m.paused = true
	m.pausedAt = m.eng().Now()
	m.pollQuiesce()
}

func (m *Migration) pollQuiesce() {
	if m.outcome != MigrationPending {
		return
	}
	if !m.ep().VMQuiesced(m.VM) {
		m.eng().AfterNamed(migPollInterval, "mig.quiesce", m.pollQuiesce)
		return
	}
	m.finalCopy()
}

// finalCopy ships the last dirty pages and the extracted VM state, then
// opens the commit handshake.
func (m *Migration) finalCopy() {
	dirty, stamp := m.ep().DirtyPages(m.VM, m.stamp)
	m.stamp = stamp
	m.sendRound(len(m.rounds), m.pendingDirty+dirty)
	img, bytes, err := m.ep().ExtractVM(m.VM)
	if err != nil {
		m.fail(err)
		return
	}
	m.img = img
	m.imgBytes = bytes
	m.send("mig.state", migState{ID: m.ID, VM: m.VM, Img: img, ImgBytes: bytes}, bytes+migHeaderBytes)
	m.totalBytes += uint64(bytes) + migHeaderBytes
	m.sendCommit()
}

func (m *Migration) sendCommit() {
	m.send("mig.commit", migCommit{ID: m.ID, Total: m.chunksSent}, migHeaderBytes)
	m.totalBytes += migHeaderBytes
	m.ackSeq++
	seq := m.ackSeq
	d := migAckTimeout
	for i := 0; i < m.retries && i < 10; i++ {
		d *= 2
	}
	m.eng().AfterNamed(d, "mig.ack", func() { m.ackTimeout(seq) })
}

func (m *Migration) ackTimeout(seq int) {
	if m.outcome != MigrationPending || seq != m.ackSeq {
		return
	}
	if m.retries >= migMaxRetries {
		m.outcome = MigrationUnresolved
		m.err = fmt.Errorf("machine: migration %d: no commit ack from node %d after %d retries; source stays paused",
			m.ID, m.To, m.retries)
		return
	}
	m.retries++
	m.sendCommit()
}

// handleDone runs on the source engine when the target acknowledges the
// resume: release and scrub the local copy. A late done after retry
// exhaustion still resolves an Unresolved migration — the source was
// holding the VM paused for exactly this case.
func (m *Migration) handleDone(d migDone) {
	if m.outcome == MigrationCompleted || m.outcome == MigrationAborted {
		return
	}
	m.ackSeq++ // disarm any pending ack timer
	if !m.released {
		if err := m.ep().ReleaseVM(m.VM); err != nil {
			m.fail(err)
			return
		}
		m.released = true
	}
	m.resumedAt = d.ResumedAt
	m.downtime = d.ResumedAt.Sub(m.pausedAt)
	m.outcome = MigrationCompleted
	m.err = nil
}

// handleNack runs on the source engine when the target rejects the
// commit: roll the VM back into service here.
func (m *Migration) handleNack(n migNack) {
	if m.outcome == MigrationCompleted || m.outcome == MigrationAborted {
		return
	}
	m.ackSeq++
	reason := fmt.Sprintf("node %d rejected commit: %s (%d/%d chunks)", m.To, n.Reason, n.Got, n.Want)
	if err := m.ep().AbortMigration(m.VM, m.img, reason); err != nil {
		m.fail(err)
		return
	}
	now := m.eng().Now()
	m.resumedAt = now
	if m.paused {
		m.downtime = now.Sub(m.pausedAt)
	}
	m.outcome = MigrationAborted
	m.err = fmt.Errorf("machine: migration %d: %s", m.ID, reason)
}

// receive dispatches one "mig." message on this node's engine.
func (p *migPort) receive(msg net.Message) {
	switch msg.Kind {
	case "mig.begin":
		b := msg.Payload.(migBegin)
		r := p.get(b.ID)
		r.vm, r.from = b.VM, msg.From
	case "mig.chunk":
		ch := msg.Payload.(migChunk)
		r := p.get(ch.ID)
		if !r.discarded && !r.resumed {
			r.chunks++
		}
	case "mig.state":
		st := msg.Payload.(migState)
		r := p.get(st.ID)
		if !r.discarded && !r.resumed {
			r.vm, r.from = st.VM, msg.From
			r.img, r.haveState = st.Img, true
		}
	case "mig.commit":
		p.commit(msg)
	case "mig.done":
		d := msg.Payload.(migDone)
		if m := p.c.migByID[d.ID]; m != nil {
			m.handleDone(d)
		}
	case "mig.nack":
		n := msg.Payload.(migNack)
		if m := p.c.migByID[n.ID]; m != nil {
			m.handleNack(n)
		}
	}
}

func (p *migPort) get(id uint64) *migRx {
	r := p.rx[id]
	if r == nil {
		r = &migRx{}
		p.rx[id] = r
	}
	return r
}

// commit decides the transfer on the target: admit and resume when the
// image is complete, discard and nack otherwise. Re-deciding the same
// transfer (a retransmitted commit after a lost reply) is idempotent —
// a resumed VM re-acks, a discarded image re-nacks, so the source always
// converges to the target's decision.
func (p *migPort) commit(msg net.Message) {
	cm := msg.Payload.(migCommit)
	r := p.get(cm.ID)
	reply := func(kind string, payload any) {
		_ = p.c.Fabric.Send(p.id, msg.From, kind, payload, migHeaderBytes)
	}
	if r.resumed {
		reply("mig.done", migDone{ID: cm.ID, ResumedAt: r.resumedAt})
		return
	}
	if r.discarded {
		reply("mig.nack", migNack{ID: cm.ID, Got: r.chunks, Want: cm.Total, Reason: "image discarded"})
		return
	}
	if !r.haveState || r.chunks < cm.Total {
		reason := "missing chunks"
		if !r.haveState {
			reason = "missing VM state"
		}
		r.discarded = true
		r.img = nil
		reply("mig.nack", migNack{ID: cm.ID, Got: r.chunks, Want: cm.Total, Reason: reason})
		return
	}
	if err := p.c.migEPs[p.id].AdmitVM(r.vm, r.img); err != nil {
		r.discarded = true
		r.img = nil
		reply("mig.nack", migNack{ID: cm.ID, Got: r.chunks, Want: cm.Total, Reason: err.Error()})
		return
	}
	r.resumed = true
	r.resumedAt = p.c.Nodes[p.id].Engine.Now()
	reply("mig.done", migDone{ID: cm.ID, ResumedAt: r.resumedAt})
}
