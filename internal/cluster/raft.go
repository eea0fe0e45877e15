// Package cluster is the distributed trust workload running on top of
// the multi-node substrate: a Raft-lite consensus protocol replicating
// the hash-chained attestation ledger (tz.AttestLog) across one replica
// VM per node. It implements the parts of Raft the failover experiments
// exercise — randomized leader election, heartbeats, log replication
// with conflict rollback, RPC timeouts with exponential backoff and
// retry, and majority commit — while leaning on the ledger's hash chain
// for log consistency: two logs that agree on the hash at index i agree
// on everything up to i, so AppendEntries carries (prevIndex, prevHash)
// instead of (prevLogIndex, prevLogTerm).
//
// Determinism is load-bearing: every timeout is drawn from a
// sim.SeedStream-derived per-replica RNG (decoupled from node engine
// seeds), every message travels through the net.Fabric as engine events,
// and replicas only act inside events on their own node's engine — so
// the same seed elects the same leaders, loses the same messages, and
// produces a bit-identical protocol trace.
//
// Crash coupling: each replica carries an alive() probe wired (by the
// harness) to its hosting VM's hafnium state. A dead VM's replica drops
// incoming messages and lets its timers lapse without acting — the
// outage window the watchdog restart policy bounds — and rejoins with
// its persisted log and term when the VM returns.
package cluster

import (
	"encoding/binary"
	"fmt"
	"strings"

	"khsim/internal/metrics"
	"khsim/internal/net"
	"khsim/internal/sim"
	"khsim/internal/tz"
)

// Role is a replica's consensus role.
type Role int

// Replica roles.
const (
	Follower Role = iota
	Candidate
	Leader
)

// String returns the role's name.
func (r Role) String() string {
	switch r {
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return "follower"
	}
}

// Config parameterizes the protocol. All durations are simulated time.
type Config struct {
	// ElectionMin is the minimum election timeout; each arming adds a
	// uniform draw from [0, ElectionJitter) so replicas split their
	// candidacies (same seed, same split).
	ElectionMin    sim.Duration
	ElectionJitter sim.Duration
	// Heartbeat is the leader's AppendEntries interval.
	Heartbeat sim.Duration
	// RPCTimeout is the leader's per-follower retransmit timeout; each
	// consecutive unanswered retry doubles it up to maxBackoffShift
	// doublings.
	RPCTimeout sim.Duration
	// Seed derives the per-replica timeout RNGs.
	Seed uint64
}

// DefaultConfig returns timescales sized for a 50 µs-latency rack: 4–8 ms
// election timeouts over 800 µs heartbeats.
func DefaultConfig(seed uint64) Config {
	return Config{
		ElectionMin:    sim.FromMicros(4000),
		ElectionJitter: sim.FromMicros(4000),
		Heartbeat:      sim.FromMicros(800),
		RPCTimeout:     sim.FromMicros(1500),
		Seed:           seed,
	}
}

const (
	// maxBackoffShift caps the doublings of a follower's retransmit
	// timeout.
	maxBackoffShift = 6
	// maxBatch caps entries shipped per AppendEntries.
	maxBatch = 16
)

func (c Config) validate(nodes int) error {
	if nodes < 2 {
		return fmt.Errorf("cluster: replication needs at least 2 nodes, got %d", nodes)
	}
	if c.ElectionMin <= 0 || c.ElectionJitter <= 0 || c.Heartbeat <= 0 || c.RPCTimeout <= 0 {
		return fmt.Errorf("cluster: all protocol timeouts must be positive")
	}
	if c.ElectionMin < 2*c.Heartbeat {
		return fmt.Errorf("cluster: election timeout %v must be at least twice the heartbeat %v", c.ElectionMin, c.Heartbeat)
	}
	return nil
}

// Wire message payloads. Sizes are modelled, not marshalled: the fabric
// charges Bytes, the payload rides as a Go value.

type voteReq struct {
	Term      uint64
	Candidate int
	LastIndex uint64
	LastTerm  uint64
}

type voteResp struct {
	Term    uint64
	Voter   int
	Granted bool
}

type appendReq struct {
	Term      uint64
	Leader    int
	PrevIndex uint64
	PrevHash  [32]byte
	Entries   []tz.AttestRecord
	Commit    uint64
}

type appendResp struct {
	Term    uint64
	From    int
	Success bool
	// Match is the last index known replicated on the follower when
	// Success; Hint is the follower's log length when not, letting the
	// leader jump nextIndex back instead of decrementing one at a time.
	Match uint64
	Hint  uint64
}

type proposeReq struct {
	Payload []byte
	// Forwarded bounds relay loops: a forwarded proposal that reaches
	// another non-leader is dropped, and the proposer's retry cadence
	// recovers it.
	Forwarded bool
}

func wireSize(payload any) int {
	switch p := payload.(type) {
	case voteReq:
		return 48
	case voteResp:
		return 24
	case appendReq:
		n := 96
		for _, e := range p.Entries {
			n += 48 + len(e.Payload)
		}
		return n
	case appendResp:
		return 40
	case proposeReq:
		return 32 + len(p.Payload)
	default:
		return 64
	}
}

// TraceKind is what a protocol trace record reports.
type TraceKind uint8

// Trace record kinds, with the fields each fills as String renders them:
//
//	TraceCandidate  election timeout: candidate term=A last=(B,tC)
//	TraceStepDown   step down: term A -> B
//	TraceLeader     leader term=A log=B
//	TraceVote       vote for nA term=B
//	TraceCommit     commit=A head=B (the ledger head's first 4 bytes, big-endian, in hex)
const (
	TraceCandidate TraceKind = iota
	TraceStepDown
	TraceLeader
	TraceVote
	TraceCommit
)

// TraceRecord is one record of the deterministic protocol trace: what
// happened and its integer fields, recorded as it happens and rendered
// as text only by String.
type TraceRecord struct {
	At      sim.Time
	Node    int32
	Kind    TraceKind
	A, B, C uint64
}

// String renders the record as a trace line.
func (t TraceRecord) String() string { return TraceLine(t.At, int(t.Node), t.event()) }

// event renders the record's kind and fields.
func (t TraceRecord) event() string {
	switch t.Kind {
	case TraceCandidate:
		return fmt.Sprintf("election timeout: candidate term=%d last=(%d,t%d)", t.A, t.B, t.C)
	case TraceStepDown:
		return fmt.Sprintf("step down: term %d -> %d", t.A, t.B)
	case TraceLeader:
		return fmt.Sprintf("leader term=%d log=%d", t.A, t.B)
	case TraceVote:
		return fmt.Sprintf("vote for n%d term=%d", t.A, t.B)
	case TraceCommit:
		return fmt.Sprintf("commit=%d head=%08x", t.A, t.B)
	}
	return fmt.Sprintf("TraceKind(%d)", t.Kind)
}

// TraceLine renders one line of a protocol trace: the instant, the node
// and the event's text. A harness renders its own annotations with it
// so they line up with the records.
func TraceLine(at sim.Time, node int, event string) string {
	return fmt.Sprintf("%12.6fs n%d %s", at.Seconds(), node, event)
}

// Service is the replicated attestation ledger spanning one replica per
// node. Build with New, wire VM liveness with SetAlive, then Start.
type Service struct {
	cfg    Config
	fabric *net.Fabric
	reps   []*Replica

	started bool
	trace   []TraceRecord // protocol trace in firing order

	mElections *metrics.Counter
	mCommits   *metrics.Counter
	mProposals *metrics.Counter
}

// New builds the service over an attached fabric: one replica per node,
// each driven by that node's engine. Replicas start as followers with
// empty logs and always-alive hosts.
func New(fabric *net.Fabric, engines []*sim.Engine, cfg Config) (*Service, error) {
	if len(engines) != fabric.Nodes() {
		return nil, fmt.Errorf("cluster: %d engines for a %d-node fabric", len(engines), fabric.Nodes())
	}
	if err := cfg.validate(len(engines)); err != nil {
		return nil, err
	}
	s := &Service{cfg: cfg, fabric: fabric}
	// The timeout stream must not collide with node engine seeds (which
	// the machine layer also derives from the base seed), so the base is
	// mixed before deriving per-replica streams.
	stream := sim.NewSeedStream(cfg.Seed*0x9e3779b97f4a7c15 + 0xc1057e44)
	for i, eng := range engines {
		r := &Replica{
			id:    i,
			svc:   s,
			eng:   eng,
			rng:   stream.RNG(i),
			alive: func() bool { return true },
			log:   tz.NewAttestLog(),
			voted: -1,
			lead:  -1,
		}
		r.election = eng.NewRegister("cluster.election", r.electionTimeout)
		r.hb = eng.NewRegister("cluster.heartbeat", r.heartbeat)
		r.retry = make([]*sim.Register, len(engines))
		for p := range r.retry {
			r.retry[p] = eng.NewRegister("cluster.rpc-retry", func() { r.retryTimeout(p) })
		}
		s.reps = append(s.reps, r)
	}
	return s, nil
}

// SetMetrics publishes protocol counters into a registry (typically the
// cluster-level one).
func (s *Service) SetMetrics(reg *metrics.Registry) {
	s.mElections = reg.Counter(metrics.K("cluster", "elections"))
	s.mCommits = reg.Counter(metrics.K("cluster", "committed"))
	s.mProposals = reg.Counter(metrics.K("cluster", "proposals"))
}

// SetAlive wires replica i's liveness probe — the harness points it at
// the hosting VM's state so a crashed VM silences its replica.
func (s *Service) SetAlive(i int, alive func() bool) {
	s.reps[i].alive = alive
}

// Start binds fabric handlers and arms every replica's election timer.
func (s *Service) Start() error {
	if s.started {
		return fmt.Errorf("cluster: service already started")
	}
	s.started = true
	for _, r := range s.reps {
		rep := r
		if err := s.fabric.Bind(net.NodeID(rep.id), rep.receive); err != nil {
			return err
		}
		rep.armElection()
	}
	return nil
}

// Replica returns replica i.
func (s *Service) Replica(i int) *Replica { return s.reps[i] }

// Replicas reports the cluster size.
func (s *Service) Replicas() int { return len(s.reps) }

// LeaderID reports the live leader of the highest term, or -1. With a
// healed cluster this is the one agreed leader; mid-election it can be
// -1 or a stale leader that has not yet learned of the new term.
func (s *Service) LeaderID() int {
	best, bestTerm := -1, uint64(0)
	for _, r := range s.reps {
		if r.role == Leader && r.alive() && r.term >= bestTerm {
			best, bestTerm = r.id, r.term
		}
	}
	return best
}

// Propose appends a payload to the replicated ledger via replica i: a
// leader appends locally, a follower forwards to its last known leader.
// It reports whether the proposal entered the protocol (not that it
// committed).
func (s *Service) Propose(i int, payload []byte) bool {
	return s.reps[i].propose(payload, false)
}

// Logs returns every replica's ledger (aliased, not copied).
func (s *Service) Logs() []*tz.AttestLog {
	out := make([]*tz.AttestLog, len(s.reps))
	for i, r := range s.reps {
		out[i] = r.log
	}
	return out
}

// PrefixConsistent reports the ledger safety property across every
// replica pair.
func (s *Service) PrefixConsistent() bool {
	for i := 0; i < len(s.reps); i++ {
		for j := i + 1; j < len(s.reps); j++ {
			if !tz.PrefixConsistent(s.reps[i].log, s.reps[j].log) {
				return false
			}
		}
	}
	return true
}

// Trace returns the protocol trace in global firing order: every replica
// appends from inside events, and the cluster fires events one at a time
// in (timestamp, node) order. The slice is aliased, not copied.
func (s *Service) Trace() []TraceRecord { return s.trace }

// TraceString renders the trace, one record per line — the
// byte-identical artifact the determinism gate compares across runs.
func (s *Service) TraceString() string {
	var b strings.Builder
	for _, t := range s.Trace() {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// trace appends a protocol trace record of kind with fields a, b and c
// for the replica, at the current instant.
func (r *Replica) trace(kind TraceKind, a, b, c uint64) {
	r.svc.trace = append(r.svc.trace, TraceRecord{At: r.eng.Now(), Node: int32(r.id), Kind: kind, A: a, B: b, C: c})
}

// traceCommit traces the replica's commit index and ledger head.
func (r *Replica) traceCommit() {
	h := r.log.Head()
	r.trace(TraceCommit, r.commit, uint64(binary.BigEndian.Uint32(h[:4])), 0)
}

// count bumps a protocol counter when SetMetrics wired one.
func count(c *metrics.Counter) {
	if c != nil {
		c.Inc()
	}
}

func (s *Service) majority() int { return len(s.reps)/2 + 1 }

// Replica is one node's consensus participant.
type Replica struct {
	id    int
	svc   *Service
	eng   *sim.Engine
	rng   *sim.RNG
	alive func() bool

	log    *tz.AttestLog
	term   uint64
	voted  int // candidate voted for in term; -1 = none
	role   Role
	lead   int // last known leader; -1 = unknown
	commit uint64
	votes  int

	// Leader-only volatile state, rebuilt at election.
	next    []uint64
	match   []uint64
	backoff []uint

	// Timers, built once in New: the randomized election timeout, the
	// leader's heartbeat ticker and one retransmit timer per peer.
	election, hb *sim.Register
	retry        []*sim.Register
}

// ID reports the replica's node id.
func (r *Replica) ID() int { return r.id }

// Role reports the replica's current role.
func (r *Replica) Role() Role { return r.role }

// Term reports the replica's current term.
func (r *Replica) Term() uint64 { return r.term }

// Leader reports the replica's last known leader (-1 = unknown).
func (r *Replica) Leader() int { return r.lead }

// Commit reports the replica's commit index.
func (r *Replica) Commit() uint64 { return r.commit }

// Log returns the replica's ledger.
func (r *Replica) Log() *tz.AttestLog { return r.log }

func (r *Replica) lastTerm() uint64 {
	if rec, ok := r.log.At(r.log.Len()); ok {
		return rec.Term
	}
	return 0
}

func (r *Replica) send(to int, payload any) {
	// Fabric errors are configuration bugs, not runtime conditions;
	// losses are silent by design.
	if err := r.svc.fabric.Send(net.NodeID(r.id), net.NodeID(to), msgKind(payload), payload, wireSize(payload)); err != nil {
		panic(fmt.Sprintf("cluster: send %d->%d: %v", r.id, to, err))
	}
}

func msgKind(payload any) string {
	switch payload.(type) {
	case voteReq:
		return "vote-req"
	case voteResp:
		return "vote-resp"
	case appendReq:
		return "append"
	case appendResp:
		return "append-resp"
	case proposeReq:
		return "propose"
	default:
		return "?"
	}
}

// armElection (re)arms the randomized election timer.
func (r *Replica) armElection() {
	d := r.svc.cfg.ElectionMin + r.rng.UniformDuration(0, r.svc.cfg.ElectionJitter)
	r.election.Arm(r.eng.Now().Add(d))
}

// electionTimeout fires when no leader traffic arrived for a full
// timeout: the replica stands for election. A dead VM's replica just
// rearms — it cannot campaign while down.
func (r *Replica) electionTimeout() {
	if !r.alive() {
		r.armElection()
		return
	}
	if r.role == Leader {
		return // stale timer; leaders pace by heartbeat
	}
	r.term++
	r.role = Candidate
	r.voted = r.id
	r.lead = -1
	r.votes = 1
	count(r.svc.mElections)
	r.trace(TraceCandidate, r.term, r.log.Len(), r.lastTerm())
	req := voteReq{Term: r.term, Candidate: r.id, LastIndex: r.log.Len(), LastTerm: r.lastTerm()}
	for _, p := range r.svc.reps {
		if p.id != r.id {
			r.send(p.id, req)
		}
	}
	r.armElection()
}

// stepDown adopts a higher term as a follower.
func (r *Replica) stepDown(term uint64) {
	if r.role == Leader {
		r.trace(TraceStepDown, r.term, term, 0)
		r.hb.Disarm()
		for _, t := range r.retry {
			t.Disarm()
		}
	}
	r.term = term
	r.role = Follower
	r.voted = -1
	r.armElection()
}

// becomeLeader initializes leader state and immediately asserts the new
// term: a "leader elected" record is appended to the ledger (leadership
// changes are themselves attested, and the fresh-term entry is what the
// commit rule needs to finalize earlier terms' records), and the first
// heartbeat round ships it.
func (r *Replica) becomeLeader() {
	n := len(r.svc.reps)
	r.role = Leader
	r.lead = r.id
	r.next = make([]uint64, n)
	r.match = make([]uint64, n)
	r.backoff = make([]uint, n)
	for i := range r.next {
		r.next[i] = r.log.Len() + 1
	}
	r.election.Disarm()
	r.log.Append(r.term, []byte(fmt.Sprintf("leader n%d term %d", r.id, r.term)))
	r.trace(TraceLeader, r.term, r.log.Len(), 0)
	r.heartbeat()
}

// heartbeat ships AppendEntries to every peer and rearms the ticker. It
// keeps ticking while the hosting VM is down (doing nothing) so a
// restarted stale leader resumes asserting its term and is deposed by
// the higher-term responses.
func (r *Replica) heartbeat() {
	if r.role != Leader {
		return
	}
	if r.alive() {
		for _, p := range r.svc.reps {
			if p.id != r.id {
				r.sendAppend(p.id)
			}
		}
	}
	r.hb.Arm(r.eng.Now().Add(r.svc.cfg.Heartbeat))
}

// sendAppend ships the suffix peer p is missing (or a bare heartbeat)
// and arms the backed-off retransmit timer.
func (r *Replica) sendAppend(p int) {
	prev := r.next[p] - 1
	prevHash, ok := r.log.HashAt(prev)
	if !ok {
		// next regressed below 1 would be a protocol bug.
		panic(fmt.Sprintf("cluster: leader n%d has no hash at %d for peer %d", r.id, prev, p))
	}
	to := prev + uint64(maxBatch)
	req := appendReq{
		Term:      r.term,
		Leader:    r.id,
		PrevIndex: prev,
		PrevHash:  prevHash,
		Entries:   r.log.Slice(prev, to),
		Commit:    r.commit,
	}
	r.send(p, req)
	r.armRetry(p)
}

// armRetry schedules the retransmit for peer p at the backed-off RPC
// timeout: RPCTimeout << backoff, capped at maxBackoffShift doublings.
func (r *Replica) armRetry(p int) {
	shift := r.backoff[p]
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	r.retry[p].Arm(r.eng.Now().Add(r.svc.cfg.RPCTimeout << shift))
}

// retryTimeout fires when peer p never acknowledged: back off and
// retransmit. An unreachable peer (partitioned, dead VM) settles at the
// capped interval instead of flooding the fabric.
func (r *Replica) retryTimeout(p int) {
	if r.role != Leader || !r.alive() {
		return
	}
	if r.backoff[p] < maxBackoffShift {
		r.backoff[p]++
	}
	r.sendAppend(p)
}

// receive dispatches a fabric delivery. A dead VM receives nothing.
func (r *Replica) receive(m net.Message) {
	if !r.alive() {
		return
	}
	switch p := m.Payload.(type) {
	case voteReq:
		r.onVoteReq(p)
	case voteResp:
		r.onVoteResp(p)
	case appendReq:
		r.onAppend(p)
	case appendResp:
		r.onAppendResp(p)
	case proposeReq:
		r.propose(p.Payload, p.Forwarded)
	}
}

func (r *Replica) onVoteReq(q voteReq) {
	if q.Term > r.term {
		r.stepDown(q.Term)
	}
	granted := false
	if q.Term == r.term && (r.voted == -1 || r.voted == q.Candidate) {
		// Election safety: only vote for candidates whose log is at
		// least as up-to-date, so a committed record can never be lost
		// to a stale winner.
		upToDate := q.LastTerm > r.lastTerm() ||
			(q.LastTerm == r.lastTerm() && q.LastIndex >= r.log.Len())
		if upToDate {
			granted = true
			r.voted = q.Candidate
			r.armElection()
			r.trace(TraceVote, uint64(q.Candidate), q.Term, 0)
		}
	}
	r.send(q.Candidate, voteResp{Term: r.term, Voter: r.id, Granted: granted})
}

func (r *Replica) onVoteResp(q voteResp) {
	if q.Term > r.term {
		r.stepDown(q.Term)
		return
	}
	if r.role != Candidate || q.Term != r.term || !q.Granted {
		return
	}
	r.votes++
	if r.votes >= r.svc.majority() {
		r.becomeLeader()
	}
}

func (r *Replica) onAppend(q appendReq) {
	if q.Term < r.term {
		r.send(q.Leader, appendResp{Term: r.term, From: r.id, Success: false, Hint: r.log.Len()})
		return
	}
	if q.Term > r.term || r.role != Follower {
		r.stepDown(q.Term)
	}
	r.lead = q.Leader
	r.armElection()
	// Consistency check: our chain hash at PrevIndex must match the
	// leader's. The hash chain makes this a complete prefix check.
	ourHash, have := r.log.HashAt(q.PrevIndex)
	if !have || ourHash != q.PrevHash {
		hint := r.log.Len()
		if have {
			// We hold a divergent record at PrevIndex; roll the leader
			// back past it.
			hint = q.PrevIndex - 1
		}
		r.send(q.Leader, appendResp{Term: r.term, From: r.id, Success: false, Hint: hint})
		return
	}
	idx := q.PrevIndex
	for _, e := range q.Entries {
		idx = e.Index
		if h, ok := r.log.HashAt(e.Index); ok && h == e.Hash {
			continue // already replicated (a retransmit overlap)
		}
		// A differing record at this index is an uncommitted divergent
		// suffix from a deposed leader: overwrite it.
		r.log.TruncateFrom(e.Index)
		if err := r.log.AppendRecord(e); err != nil {
			panic(fmt.Sprintf("cluster: replica n%d: %v", r.id, err))
		}
	}
	if q.Commit > r.commit {
		c := q.Commit
		if l := r.log.Len(); c > l {
			c = l
		}
		if c > r.commit {
			r.commit = c
			r.traceCommit()
		}
	}
	r.send(q.Leader, appendResp{Term: r.term, From: r.id, Success: true, Match: idx})
}

func (r *Replica) onAppendResp(q appendResp) {
	if q.Term > r.term {
		r.stepDown(q.Term)
		return
	}
	if r.role != Leader || q.Term != r.term {
		return
	}
	p := q.From
	r.backoff[p] = 0
	r.retry[p].Disarm()
	if !q.Success {
		// Roll nextIndex back (the hint jumps straight to the
		// follower's log end) and retransmit immediately.
		nxt := r.next[p] - 1
		if q.Hint+1 < nxt {
			nxt = q.Hint + 1
		}
		if nxt < 1 {
			nxt = 1
		}
		r.next[p] = nxt
		r.sendAppend(p)
		return
	}
	if q.Match > r.match[p] {
		r.match[p] = q.Match
	}
	r.next[p] = r.match[p] + 1
	r.advanceCommit()
	if r.next[p] <= r.log.Len() {
		r.sendAppend(p) // keep streaming a catch-up without waiting for the tick
	}
}

// advanceCommit moves the commit index over every record replicated on a
// majority, restricted (as in Raft) to records of the current term.
func (r *Replica) advanceCommit() {
	for i := r.commit + 1; i <= r.log.Len(); i++ {
		n := 1 // self
		for p, m := range r.match {
			if p != r.id && m >= i {
				n++
			}
		}
		if n < r.svc.majority() {
			break
		}
		rec, _ := r.log.At(i)
		if rec.Term != r.term {
			continue
		}
		r.commit = i
		count(r.svc.mCommits)
		r.traceCommit()
	}
}

// propose enters a payload into the protocol: leaders append, followers
// forward once to their last known leader.
func (r *Replica) propose(payload []byte, forwarded bool) bool {
	if !r.alive() {
		return false
	}
	if r.role == Leader {
		r.log.Append(r.term, payload)
		count(r.svc.mProposals)
		return true
	}
	if forwarded || r.lead < 0 || r.lead == r.id {
		return false
	}
	r.send(r.lead, proposeReq{Payload: payload, Forwarded: true})
	return true
}
