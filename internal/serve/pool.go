package serve

import (
	"bytes"
	"fmt"
	"math"
	"strconv"

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
	// reapsArmed and reapsFired count the environment's TTL reaps. Reaps
	// share one fixed delay, so they fire in the order they were armed,
	// and a firing reap is the latest one exactly when the two counts
	// meet. Only toReady arms a reap and every other transition leaves
	// Ready, so the latest reap finding the environment Ready means it
	// has not moved since the reap was armed.
	reapsArmed, reapsFired uint64
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
	byVM   map[hafnium.VMID]*Env

	// jobs holds the jobs from the oldest unfinished one to the newest.
	jobs jobTable
	// pendingAdmit holds generated job IDs the login VM has not yet
	// admitted (the simulated NIC queue).
	pendingAdmit idRing
	// queue holds admitted job IDs awaiting dispatch; a crash-replace
	// requeue goes to its head.
	queue idRing

	draining  bool // login admission chain in flight
	pumpArmed bool // dispatch retry pending
	warmLive  int  // environments holding warm-pool tokens

	rate     float64
	horizon  sim.Time
	injector *faults.Injector

	// reaper is the engine's fixed-delay lane at cfg.TTL. reapFn,
	// arrivalFn and admitFns (one per login VCPU, by index) are the
	// reap, arrival and admission-driver callbacks, bound once.
	reaper    *sim.Delay
	reapFn    func(any)
	arrivalFn func()
	admitFns  []func()

	// wire is the reused encode buffer for admit/job/done messages; the
	// hypervisor copies a payload into the receiver's receive buffer on
	// send.
	wire []byte

	generated, admitted, completed, replayed int
	admitRetries, doneRetries, dropped       int
	sigVerified, sigFailed                   int

	// Latency collects admission-to-completion latencies in microseconds;
	// WarmPrep / ColdPrep collect prepare durations by path.
	Latency  stats.Sample
	WarmPrep stats.Sample
	ColdPrep stats.Sample

	mLatency *metrics.Histogram
	mDone    *metrics.Counter
}

// NewPool wires the serving workload into an un-booted secure node: it
// attaches the login and environment guests, takes over the primary
// kernel's mailbox handler and the node's lifecycle hook, and derives
// the pool's RNG streams and signing identity from seed. Call before
// n.Boot().
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
		byVM:   make(map[hafnium.VMID]*Env),
		reaper: n.Machine.Engine.NewDelay(cfg.TTL),
	}
	p.keyring = tz.NewKeyring(p.signer.Public())
	p.reapFn = p.reap
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
		e := &Env{Name: name, Index: i, vm: vm, id: vm.ID(), job: -1}
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
	if err := vc.SendMessage(hafnium.PrimaryID, p.encode("admit", int64(id))); err != nil {
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
// mailbox handler for admit/done traffic and forwards everything else to
// the stock job-control command path. Every ID below the next one issued
// is a pool ID, whether or not its job is still in the table.
func (p *Pool) primaryMessage(msg hafnium.Message) {
	cmd, arg, _ := bytes.Cut(msg.Payload, space)
	n, ok := parseDecimal(arg)
	if !ok || n >= int64(p.jobs.next()) {
		p.kern.ExecuteCommand(msg)
		return
	}
	id := int(n)
	switch string(cmd) {
	case "admit":
		j := p.jobs.get(id)
		if j == nil {
			return // a job that has finished and left the table
		}
		j.AdmitAt = p.eng.Now()
		p.admitted++
		p.queue.pushBack(id)
		p.pump()
	case "done":
		e, ok := p.byVM[msg.From]
		if !ok || e.job != id {
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
	default:
		p.kern.ExecuteCommand(msg)
	}
}

// toReady marks an environment idle and arms its TTL reap.
func (p *Pool) toReady(e *Env) {
	e.state = EnvReady
	e.idleSince = p.eng.Now()
	e.epoch++
	p.scheduleReap(e)
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
		if err := p.hyp.SendFromPrimary(e.id, p.encode("job", int64(id), int64(j.Demand))); err != nil {
			p.armPumpRetry()
			return
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

// armPumpRetry schedules one dispatch retry after the backoff (an
// environment mailbox was unexpectedly busy).
func (p *Pool) armPumpRetry() {
	if p.pumpArmed {
		return
	}
	p.pumpArmed = true
	p.eng.AfterNamed(p.cfg.RetryBackoff, "serve.pump.retry", func() {
		p.pumpArmed = false
		p.pump()
	})
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

// scheduleReap arms the TTL reaper for an idle environment on the
// engine's fixed-delay lane. The reap is a no-op unless the environment
// is still Ready and no later reap was armed (see Env.reapsArmed). At an
// exact tie — a dispatch landing at the expiry instant — the reap wins:
// it was scheduled when the environment went idle, so its seq is the
// smaller one and the engine fires it first.
func (p *Pool) scheduleReap(e *Env) {
	e.reapsArmed++
	p.reaper.ScheduleArg("serve.reap", p.reapFn, e)
}

// reap is the TTL reap event for the environment x.
func (p *Pool) reap(x any) {
	e := x.(*Env)
	e.reapsFired++
	if e.state != EnvReady || e.reapsFired != e.reapsArmed {
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

// releaseWarm returns an environment's warm-pool token, if it holds one.
func (p *Pool) releaseWarm(e *Env) {
	if e.warm {
		e.warm = false
		p.warmLive--
	}
}

// envMessage runs inside an environment VM: parse the job, burn its
// demand, report completion (retrying a busy primary mailbox), and park
// the VCPU again.
func (p *Pool) envMessage(e *Env, vc *hafnium.VCPU, msg hafnium.Message) {
	cmd, rest, _ := bytes.Cut(msg.Payload, space)
	if string(cmd) != "job" {
		vc.Block()
		return
	}
	idStr, demStr, _ := bytes.Cut(rest, space)
	id, ok1 := parseDecimal(idStr)
	dem, ok2 := parseDecimal(demStr)
	if !ok1 || !ok2 {
		vc.Block()
		return
	}
	vc.ExecBound("serve.job", sim.Duration(dem), e.done[vc.Index()], int(id))
}

// reportDone sends the completion message, backing off while the
// primary's mailbox is busy, then parks the VCPU.
func (p *Pool) reportDone(e *Env, vc *hafnium.VCPU, id int) {
	if err := vc.SendMessage(hafnium.PrimaryID, p.encode("done", int64(id))); err != nil {
		p.doneRetries++
		vc.ExecBound("serve.done.retry", p.cfg.RetryBackoff, e.done[vc.Index()], id)
		return
	}
	vc.Block()
}

// space separates a message's command and its decimal fields.
var space = []byte{' '}

// encode renders one pool message, the command and its decimal fields
// separated by spaces ("admit 7", "job 7 200000000", "done 7"), into the
// reused wire buffer.
func (p *Pool) encode(cmd string, fields ...int64) []byte {
	b := append(p.wire[:0], cmd...)
	for _, f := range fields {
		b = strconv.AppendInt(append(b, ' '), f, 10)
	}
	p.wire = b
	return b
}

// parseDecimal parses a non-empty run of decimal digits that fits an
// int64: the fields encode writes. Anything else, signs included, is not
// a pool message.
func parseDecimal(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var n int64
	for _, c := range b {
		d := int64(c) - '0'
		if d < 0 || d > 9 || n > (math.MaxInt64-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
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
