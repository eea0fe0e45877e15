package serve

import (
	"encoding/binary"
	"errors"
	"fmt"

	"khsim/internal/core"
	"khsim/internal/faults"
	"khsim/internal/hafnium"
	"khsim/internal/kernel"
	"khsim/internal/kitten"
	"khsim/internal/linuxos"
	"khsim/internal/machine"
	"khsim/internal/metrics"
	"khsim/internal/sim"
	"khsim/internal/stats"
	"khsim/internal/tz"
)

// admitCost is the login VM's per-job admission driver work (queue pop,
// request parse, mailbox marshal) beyond the device-IRQ delivery cost
// the guest kernel already charges.
const admitCost = sim.Duration(2 * sim.Microsecond)

// Env is one environment VM's pool-side state.
type Env struct {
	// Name is the VM's manifest name.
	Name string
	// Index is the environment's slot in the pool.
	Index int

	vm    *hafnium.VM
	id    hafnium.VMID
	state EnvState
	// warm marks an environment holding a warm-pool token (its last
	// prepare was a stage-2 rewind). Watchdog revivals never hold one.
	warm bool
	// job is the in-flight job's ID, -1 when idle.
	job int
	// idleSince is when the environment last went Ready.
	idleSince sim.Time
	// epoch advances on every state transition; the ledger records it.
	epoch uint64
	// reap is the environment's TTL reap. Only toReady arms it, and every
	// other transition leaves Ready, so a firing that finds the
	// environment Ready means it has not moved since it went idle.
	reap *sim.Register
	// done holds each VCPU's job completion (reportDone), bound once and
	// indexed by VCPU; the job ID rides in the pooled activity.
	done []func(c *machine.Core, id int)

	// WarmPrepares / ColdPrepares / Reaps / Crashes / Replaces count the
	// environment's lifecycle transitions for the report.
	WarmPrepares int
	ColdPrepares int
	Reaps        int
	Crashes      int
	Replaces     int
}

// State reports the environment's current pool state.
func (e *Env) State() EnvState { return e.state }

// PoolStats is a counters snapshot for reports and gates.
type PoolStats struct {
	Generated    int // jobs the arrival process produced
	Admitted     int // jobs the login VM admitted to the primary
	Completed    int // jobs that reported done
	Replayed     int // crash-replace re-dispatches
	AdmitRetries int // busy-mailbox retries on the admission path
	DoneRetries  int // busy-mailbox retries on the completion path
	Dropped      int // admission IRQs the hypervisor rejected
	WarmPrepares int // environment prepares served by stage-2 rewind
	ColdPrepares int // environment prepares paying the full rebuild
	Reaps        int // TTL expirations
	Crashes      int // contained environment crashes
	Replaces     int // watchdog revivals reintegrated into the pool
	Quarantines  int // environments lost for good
	SigVerified  int // pool ledger records that verified against the node key
	SigFailed    int // pool ledger records that failed verification
	// BadAdmits counts admit frames the pool dropped: sent by a VM other
	// than the login VM, or for a job already admitted or retired.
	BadAdmits int
}

// Pool runs the serving workload on one secure node: the open-loop
// arrival process, the login VM's admission driver, the primary-kernel
// pool manager (dispatch, prepare, reap, crash-replace), and the signed
// ledger trail. Build with NewPool before the node boots; call Start
// after.
type Pool struct {
	node *core.SecureNode
	hyp  *hafnium.Hypervisor
	eng  *sim.Engine
	cfg  Config
	seed uint64
	kern *kernel.Kernel

	arrRNG  *sim.RNG // arrival gaps
	demRNG  *sim.RNG // demand draws
	signer  *tz.Signer
	keyring *tz.Keyring // holds signer's verifying key

	login  *hafnium.VM
	envs   []*Env
	byName map[string]*Env
	// byVM holds each environment by its VM's ID; an ID no environment
	// holds maps to nil.
	byVM []*Env

	// jobs holds the jobs from the oldest unfinished one to the newest.
	jobs jobTable
	// pendingAdmit holds generated job IDs the login VM has not yet
	// admitted (the simulated NIC queue).
	pendingAdmit idRing
	// queue holds admitted job IDs awaiting dispatch; a crash-replace
	// requeue goes to its head.
	queue idRing

	draining  bool          // login admission chain in flight
	pumpRetry *sim.Register // dispatch retry after a busy environment mailbox
	warmLive  int           // environments holding warm-pool tokens

	rate     float64
	horizon  sim.Time
	injector *faults.Injector

	// arrivalFn and admitFns (one per login VCPU, by index) are the
	// arrival and admission-driver callbacks, bound once.
	arrivalFn func()
	admitFns  []func()

	// wire is the reused encode buffer for admit, job and done frames;
	// the hypervisor copies a payload into the receiver's receive buffer
	// on send.
	wire []byte

	generated, admitted, completed, replayed int
	admitRetries, doneRetries, dropped       int
	sigVerified, sigFailed, badAdmits        int

	// Latency collects admission-to-completion latencies in microseconds;
	// WarmPrep / ColdPrep collect prepare durations by path.
	Latency  stats.Sample
	WarmPrep stats.Sample
	ColdPrep stats.Sample

	mLatency *metrics.Histogram
	mDone    *metrics.Counter
}

// NewPool wires the serving workload into an un-booted secure node: it
// attaches the login and environment guests, hands every environment VM
// to the primary (so the login VM's job control cannot stop or start
// one behind the pool's back), takes over the primary kernel's mailbox
// handler and the node's lifecycle hook, and derives the pool's RNG
// streams and signing identity from seed. Call before n.Boot().
func NewPool(n *core.SecureNode, cfg Config, seed uint64) (*Pool, error) {
	if cfg.TTL <= 0 {
		return nil, fmt.Errorf("serve: TTL %v is not positive", cfg.TTL)
	}
	login, ok := n.Hyp.VMByName(cfg.LoginVM)
	if !ok {
		return nil, fmt.Errorf("serve: no login VM %q in manifest", cfg.LoginVM)
	}
	if login.Class() != hafnium.SuperSecondary {
		return nil, fmt.Errorf("serve: login VM %q is not the super-secondary", cfg.LoginVM)
	}
	p := &Pool{
		node:   n,
		hyp:    n.Hyp,
		eng:    n.Machine.Engine,
		cfg:    cfg,
		seed:   seed,
		arrRNG: sim.NewRNG(seed ^ 0x5e3fe1),
		demRNG: sim.NewRNG(seed ^ 0xde3a4d),
		signer: tz.NewSigner(seed, 0),
		login:  login,
		byName: make(map[string]*Env),
	}
	p.keyring = tz.NewKeyring(p.signer.Public())
	p.pumpRetry = p.eng.NewRegister("serve.pump.retry", p.pump)
	p.arrivalFn = p.onArrival
	for i := 0; i < login.VCPUs(); i++ {
		vc := login.VCPU(i)
		p.admitFns = append(p.admitFns, func() { p.admitNext(vc) })
	}
	switch {
	case n.KittenPrimary != nil:
		p.kern = n.KittenPrimary.Kernel
	case n.LinuxPrimary != nil:
		p.kern = n.LinuxPrimary.Kernel
	default:
		return nil, fmt.Errorf("serve: node has no primary kernel")
	}

	// The login VM keeps an idle loop ticking (Linux semantics) and runs
	// the admission driver off the forwarded doorbell interrupt.
	lg := linuxos.NewGuest(linuxos.DefaultParams(), seed^0x10a1)
	lg.OnDeviceIRQ = func(vc *hafnium.VCPU, virq int) {
		if virq != AdmitVIRQ {
			return
		}
		p.admitPending(vc)
	}
	// Pin the login VM to core 1, environments rotated over the others
	// (core 0 keeps the primary's control traffic).
	ncores := len(n.Machine.Cores)
	loginCore := 1 % ncores
	if err := n.AttachGuest(cfg.LoginVM, lg, loginCore); err != nil {
		return nil, err
	}
	var envCores []int
	for c := 0; c < ncores; c++ {
		if c != loginCore || ncores == 1 {
			envCores = append(envCores, c)
		}
	}
	for i, name := range cfg.EnvVMs {
		vm, ok := n.Hyp.VMByName(name)
		if !ok {
			return nil, fmt.Errorf("serve: no environment VM %q in manifest", name)
		}
		if err := n.Hyp.HandToPrimary(vm.ID()); err != nil {
			return nil, err
		}
		e := &Env{Name: name, Index: i, vm: vm, id: vm.ID(), job: -1}
		e.reap = p.eng.NewRegister("serve.reap", func() { p.reap(e) })
		for k := 0; k < vm.VCPUs(); k++ {
			vc := vm.VCPU(k)
			e.done = append(e.done, func(_ *machine.Core, id int) { p.reportDone(e, vc, id) })
		}
		g := kitten.NewGuest(kitten.DefaultParams())
		g.OnMessage = func(vc *hafnium.VCPU, msg hafnium.Message) {
			p.envMessage(e, vc, msg)
		}
		if err := n.AttachGuest(name, g, envCores[i%len(envCores)]); err != nil {
			return nil, err
		}
		p.envs = append(p.envs, e)
		p.byName[name] = e
		for int(e.id) >= len(p.byVM) {
			p.byVM = append(p.byVM, nil)
		}
		p.byVM[e.id] = e
	}
	p.kern.OnMessage = p.primaryMessage
	n.OnLifecycle = p.onLifecycle
	p.mLatency = n.Machine.Metrics.Histogram(metrics.K("serve", "latency_us"), 0, 50000, 1000)
	p.mDone = n.Machine.Metrics.Counter(metrics.K("serve", "completed"))
	return p, nil
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() PoolStats {
	s := PoolStats{
		Generated: p.generated, Admitted: p.admitted, Completed: p.completed,
		Replayed: p.replayed, AdmitRetries: p.admitRetries, DoneRetries: p.doneRetries,
		Dropped: p.dropped, SigVerified: p.sigVerified, SigFailed: p.sigFailed,
		BadAdmits: p.badAdmits,
	}
	for _, e := range p.envs {
		s.WarmPrepares += e.WarmPrepares
		s.ColdPrepares += e.ColdPrepares
		s.Reaps += e.Reaps
		s.Crashes += e.Crashes
		s.Replaces += e.Replaces
		if e.state == EnvDead {
			s.Quarantines++
		}
	}
	return s
}

// Start parks every environment (the pool begins empty — the first job
// on each pays a prepare), starts the arrival process at rate jobs per
// second for cfg.Run of simulated time, and arms the crash campaign if
// one is configured. Call once, after the node has booted.
func (p *Pool) Start(rate float64) error {
	if rate <= 0 {
		return fmt.Errorf("serve: arrival rate %g", rate)
	}
	if err := p.park(); err != nil {
		return err
	}
	p.rate = rate
	p.horizon = p.eng.Now().Add(p.cfg.Run)
	p.scheduleArrival()
	if p.cfg.CrashMean > 0 {
		rules := make([]faults.Rule, len(p.envs))
		for i, e := range p.envs {
			rules[i] = faults.Rule{Kind: faults.VCPUCrash, Target: e.Name, Core: -1, Mean: p.cfg.CrashMean}
		}
		in, err := faults.New(p.node.Machine, p.hyp, p.seed^0xfa117, rules)
		if err != nil {
			return err
		}
		if err := in.Start(p.horizon); err != nil {
			return err
		}
		p.injector = in
	}
	return nil
}

// park stops every environment VM so the pool begins empty (tests call
// it directly to drive hand-scheduled arrivals).
func (p *Pool) park() error {
	for _, e := range p.envs {
		if err := p.hyp.StopVM(e.id); err != nil {
			return fmt.Errorf("serve: parking %s: %w", e.Name, err)
		}
		e.state = EnvStopped
		e.epoch++
	}
	return nil
}

// scheduleArrival arms the next open-loop arrival; the chain stops at
// the horizon (in-flight jobs then drain).
func (p *Pool) scheduleArrival() {
	gap := p.arrRNG.ExpDuration(sim.FromSeconds(1.0 / p.rate))
	at := p.eng.Now().Add(gap)
	if at > p.horizon {
		return
	}
	p.eng.ScheduleNamed(at, "serve.arrival", p.arrivalFn)
}

// onArrival is the arrival event: one job, then the next arrival.
func (p *Pool) onArrival() {
	p.arrive(p.cfg.Mix.Demand(p.demRNG))
	p.scheduleArrival()
}

// arrive generates one job and rings the login VM's doorbell. The demand
// is drawn by the caller so tests can inject jobs with pinned demands.
func (p *Pool) arrive(demand sim.Duration) {
	id := p.jobs.add(Job{Arrive: p.eng.Now(), Demand: demand, Env: -1})
	p.generated++
	p.pendingAdmit.pushBack(id)
	if err := p.hyp.InjectDeviceIRQ(p.login.ID(), AdmitVIRQ); err != nil {
		// The login VM is down; the job waits in the queue for the next
		// successful doorbell.
		p.dropped++
	}
}

// admitPending drains the arrival queue from the login VM: one mailbox
// send per job, with in-guest exponential-cost-free backoff when the
// primary's one-slot mailbox is busy. The doorbell interrupt is level-
// style (the hypervisor deduplicates a pending VIRQ), so one delivery
// drains everything queued.
func (p *Pool) admitPending(vc *hafnium.VCPU) {
	if p.draining {
		return
	}
	p.draining = true
	p.admitNext(vc)
}

func (p *Pool) admitNext(vc *hafnium.VCPU) {
	if p.pendingAdmit.len() == 0 {
		p.draining = false
		return
	}
	id := p.pendingAdmit.front()
	if err := vc.SendMessage(hafnium.PrimaryID, p.idFrame(tagAdmit, id)); err != nil {
		p.admitRetries++
		vc.Exec("serve.admit.retry", p.cfg.RetryBackoff, p.admitFns[vc.Index()])
		return
	}
	p.pendingAdmit.popFront()
	if p.pendingAdmit.len() > 0 {
		vc.Exec("serve.admit", admitCost, p.admitFns[vc.Index()])
		return
	}
	p.draining = false
}

// primaryMessage is the pool manager: it takes over the primary kernel's
// mailbox handler for admit and done frames and hands everything else —
// a payload that is not one of those frames, or whose ID was never
// issued — to the stock job-control command path, which cannot stop or
// start an environment: the primary controls them. Every ID below the
// next one issued is a pool ID, whether or not its job is still in the
// table.
func (p *Pool) primaryMessage(msg hafnium.Message) {
	b := msg.Payload
	if len(b) != idFrameLen || (b[0] != tagAdmit && b[0] != tagDone) {
		p.kern.ExecuteCommand(msg)
		return
	}
	n := binary.LittleEndian.Uint64(b[1:])
	if n >= uint64(p.jobs.next()) {
		p.kern.ExecuteCommand(msg)
		return
	}
	if b[0] == tagAdmit {
		p.admit(msg.From, int(n))
	} else {
		p.done(msg.From, int(n))
	}
}

// admit queues job id for dispatch. Only the login VM admits, and each
// job once; any other admit frame is dropped and counted.
func (p *Pool) admit(from hafnium.VMID, id int) {
	j := p.jobs.get(id)
	if from != p.login.ID() || j == nil || j.AdmitAt != 0 {
		p.badAdmits++
		return
	}
	j.AdmitAt = p.eng.Now()
	p.admitted++
	p.queue.pushBack(id)
	p.pump()
}

// done completes job id, reported by the environment VM from.
func (p *Pool) done(from hafnium.VMID, id int) {
	var e *Env
	if int(from) < len(p.byVM) {
		e = p.byVM[from]
	}
	if e == nil || e.job != id {
		// Stale completion: the environment crashed (or was replaced)
		// after finishing but before this message was consumed, and the
		// job has been requeued — or has since completed and left the
		// table. The replay's completion is the one that counts.
		return
	}
	j := p.jobs.get(id)
	j.DoneAt = p.eng.Now()
	p.completed++
	p.mDone.Inc()
	us := j.Latency().Micros()
	p.Latency.Add(us)
	p.mLatency.Observe(us)
	p.jobs.reclaim()
	e.job = -1
	p.toReady(e)
	p.pump()
}

// toReady marks an environment idle and arms its TTL reap.
func (p *Pool) toReady(e *Env) {
	e.state = EnvReady
	e.idleSince = p.eng.Now()
	e.epoch++
	e.reap.Arm(e.idleSince.Add(p.cfg.TTL))
}

// pump dispatches queued jobs to Ready environments and starts prepares
// on Stopped ones for whatever demand remains. It runs in primary-kernel
// or engine context — never inside a guest.
func (p *Pool) pump() {
	for p.queue.len() > 0 {
		e := p.readyEnv()
		if e == nil {
			break
		}
		id := p.queue.front()
		j := p.jobs.get(id)
		err := p.hyp.SendFromPrimary(e.id, p.jobFrame(id, j.Demand))
		if errors.Is(err, hafnium.ErrBusy) {
			// The environment's mailbox was unexpectedly busy: retry
			// after the backoff.
			if !p.pumpRetry.Armed() {
				p.pumpRetry.Arm(p.eng.Now().Add(p.cfg.RetryBackoff))
			}
			return
		}
		if err != nil {
			// The VM stopped under the pool; try the next environment.
			p.stopped(e)
			continue
		}
		p.queue.popFront()
		j.DispatchAt = p.eng.Now()
		j.Env = e.Index
		e.state = EnvBusy
		e.job = id
		e.epoch++
	}
	need := p.queue.len()
	for _, e := range p.envs {
		if e.state == EnvPreparing {
			need--
		}
	}
	for _, e := range p.envs {
		if need <= 0 {
			break
		}
		if e.state == EnvStopped {
			p.startPrepare(e)
			need--
		}
	}
}

// readyEnv picks the first Ready environment in slot order (stable, so
// dispatch order is deterministic).
func (p *Pool) readyEnv() *Env {
	for _, e := range p.envs {
		if e.state == EnvReady {
			return e
		}
	}
	return nil
}

// startPrepare begins the two-phase reuse path on a stopped environment:
// a warm stage-2 rewind while the warm-pool budget lasts, a cold rebuild
// otherwise. The prepare charges PrepareCost of wall time before the VM
// restarts and joins the Ready set.
func (p *Pool) startPrepare(e *Env) {
	wantWarm := p.warmLive < p.cfg.WarmPool
	usedWarm, err := p.hyp.RecycleVM(e.id, wantWarm)
	if err != nil {
		return
	}
	cost, err := p.hyp.PrepareCost(e.id, usedWarm)
	if err != nil {
		return
	}
	e.state = EnvPreparing
	e.epoch++
	e.warm = usedWarm
	if usedWarm {
		p.warmLive++
	}
	p.eng.AfterNamed(cost, "serve.prepare", func() {
		if e.state != EnvPreparing {
			return
		}
		if err := p.hyp.RestartVM(e.id); err != nil {
			return
		}
		if usedWarm {
			e.WarmPrepares++
			p.WarmPrep.Add(cost.Micros())
		} else {
			e.ColdPrepares++
			p.ColdPrep.Add(cost.Micros())
		}
		path := "cold"
		if usedWarm {
			path = "warm"
		}
		p.record("boot", e, path)
		p.toReady(e)
		p.pump()
	})
}

// reap is the environment's TTL reap, TTL after it last went Ready: it
// stops the VM if the environment is still Ready. At an exact tie — a
// dispatch landing at the expiry instant — the reap wins: it was armed
// when the environment went idle, so its seq is the smaller one and the
// engine fires it first.
func (p *Pool) reap(e *Env) {
	if e.state != EnvReady {
		return
	}
	if err := p.hyp.StopVM(e.id); err != nil {
		return
	}
	e.state = EnvStopped
	e.epoch++
	e.Reaps++
	p.releaseWarm(e)
	p.record("reap", e, "ttl")
}

// stopped takes a Ready environment whose VM stopped under the pool out
// of service, as a reap does. Job control cannot stop an environment, so
// only a direct Hypervisor.StopVM leaves one for a dispatch to find.
func (p *Pool) stopped(e *Env) {
	e.state = EnvStopped
	e.epoch++
	p.releaseWarm(e)
	p.record("stop", e, "not-running")
}

// releaseWarm returns an environment's warm-pool token, if it holds one.
func (p *Pool) releaseWarm(e *Env) {
	if e.warm {
		e.warm = false
		p.warmLive--
	}
}

// envMessage runs inside an environment VM: decode the job frame, burn
// its demand, report completion (retrying a busy primary mailbox), and
// park the VCPU again. Anything else parks the VCPU at once.
func (p *Pool) envMessage(e *Env, vc *hafnium.VCPU, msg hafnium.Message) {
	b := msg.Payload
	if len(b) != jobFrameLen || b[0] != tagJob {
		vc.Block()
		return
	}
	id := binary.LittleEndian.Uint64(b[1:])
	dem := binary.LittleEndian.Uint64(b[9:])
	vc.ExecBound("serve.job", sim.Duration(dem), e.done[vc.Index()], int(id))
}

// reportDone sends the completion frame, backing off while the primary's
// mailbox is busy, then parks the VCPU.
func (p *Pool) reportDone(e *Env, vc *hafnium.VCPU, id int) {
	if err := vc.SendMessage(hafnium.PrimaryID, p.idFrame(tagDone, id)); err != nil {
		p.doneRetries++
		vc.ExecBound("serve.done.retry", p.cfg.RetryBackoff, e.done[vc.Index()], id)
		return
	}
	vc.Block()
}

// The pool's three messages are fixed-width binary frames: a tag byte,
// then little-endian uint64 fields. The tags lie outside printable
// ASCII, so no job-control command is a frame.
const (
	tagAdmit byte = 0x81 // admit: the job ID (login VM to primary)
	tagJob   byte = 0x82 // job: the job ID, then its demand in ns (primary to environment)
	tagDone  byte = 0x83 // done: the job ID (environment to primary)

	idFrameLen  = 1 + 8 // admit and done
	jobFrameLen = 1 + 8 + 8
)

// idFrame encodes an admit or done frame for job id into the reused wire
// buffer.
func (p *Pool) idFrame(tag byte, id int) []byte {
	p.wire = binary.LittleEndian.AppendUint64(append(p.wire[:0], tag), uint64(id))
	return p.wire
}

// jobFrame encodes the job frame dispatching job id with its demand.
func (p *Pool) jobFrame(id int, demand sim.Duration) []byte {
	p.wire = binary.LittleEndian.AppendUint64(p.idFrame(tagJob, id), uint64(demand))
	return p.wire
}

// onLifecycle reintegrates fault-injected environments: a contained
// crash requeues the in-flight job at the head of the dispatch queue
// (crash-replace), the watchdog's revival returns the environment to the
// Ready set, and a quarantine removes it for good. Every transition is
// signed into the ledger.
func (p *Pool) onLifecycle(ev hafnium.LifecycleEvent) {
	e, ok := p.byName[ev.VM]
	if !ok {
		return
	}
	switch ev.Kind {
	case "crash":
		e.Crashes++
		if e.job >= 0 {
			p.jobs.get(e.job).Replays++
			p.replayed++
			p.queue.pushFront(e.job)
			e.job = -1
		}
		e.state = EnvCrashed
		e.epoch++
		p.releaseWarm(e)
		p.record("crash", e, ev.Reason)
	case "restart", "snapshot-restore":
		if e.state != EnvCrashed {
			return
		}
		e.Replaces++
		p.record("replace", e, ev.Kind)
		p.toReady(e)
		// Dispatch outside the lifecycle hook: the watchdog's transition
		// is still in flight.
		p.eng.AfterNamed(0, "serve.replace.pump", p.pump)
	case "quarantine":
		e.state = EnvDead
		e.epoch++
		e.job = -1
		p.releaseWarm(e)
		p.record("quarantine", e, ev.Reason)
	}
}

// record signs one pool transition with the node identity, checks the
// record against the node's key in the pool's keyring, and appends it to
// the attestation ledger with the signature prefix — the serving
// counterpart of the migration provenance records. The check guards the
// signer's memo: a remembered signature returned with a payload it was
// not made for misses the keyring's memo and fails the full verify.
func (p *Pool) record(kind string, e *Env, detail string) {
	payload := []byte(fmt.Sprintf("serve %s vm=%s epoch=%d %s", kind, e.Name, e.epoch, detail))
	rec := tz.SignRecord(p.signer, 0, payload)
	if p.keyring.Verify(rec) == nil {
		p.sigVerified++
	} else {
		p.sigFailed++
	}
	p.node.AttestLog.Append(0, []byte(fmt.Sprintf("%s sig=%x", payload, rec.Sig[:8])))
}
