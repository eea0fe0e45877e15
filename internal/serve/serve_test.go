package serve

import (
	"bytes"
	"strings"
	"testing"

	"khsim/internal/core"
	"khsim/internal/hafnium"
	"khsim/internal/sim"
)

const testManifest = `
[serve]
run_ms = 40
drain_ms = 20
ttl_ms = 5
warm_pool = 1
rates = 800
job_short_us = 100
job_long_us = 1000
job_long_frac = 0.1
retry_us = 20

[vm primary]
class = primary
vcpus = 4
memory_mb = 64

[vm login]
class = super-secondary
vcpus = 1
memory_mb = 64

[vm env0]
class = secondary
vcpus = 1
memory_mb = 8
working_set_pages = 64
restart_policy = restart
restart_from_snapshot = true

[vm env1]
class = secondary
vcpus = 1
memory_mb = 8
working_set_pages = 64
restart_policy = restart
restart_from_snapshot = true
`

// buildPool assembles a booted node + pool from the test manifest.
func buildPool(t *testing.T, seed uint64, mutate func(*Config)) (*core.SecureNode, *Pool, Config) {
	t.Helper()
	cfg, err := ParseManifest(testManifest)
	if err != nil {
		t.Fatalf("ParseManifest: %v", err)
	}
	if mutate != nil {
		mutate(&cfg)
	}
	n, err := core.NewSecureNode(core.Options{Seed: seed, Manifest: cfg.NodePlan, Scheduler: core.SchedulerKitten})
	if err != nil {
		t.Fatalf("NewSecureNode: %v", err)
	}
	p, err := NewPool(n, cfg, seed)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	if err := n.Boot(); err != nil {
		t.Fatalf("Boot: %v", err)
	}
	return n, p, cfg
}

// dispatchedEnv steps eng until job id has been dispatched, and returns
// the environment it went to while the job is still in flight (a
// finished job may leave the table). It fails the test if the dispatch
// has not happened by until.
func dispatchedEnv(t *testing.T, eng *sim.Engine, p *Pool, id int, until sim.Time) *Env {
	t.Helper()
	for {
		if j := p.jobs.get(id); j != nil && j.Env >= 0 {
			return p.envs[j.Env]
		}
		if at, ok := eng.NextAt(); !ok || at > until {
			t.Fatalf("job %d not dispatched by %v", id, until)
		}
		eng.Step()
	}
}

func TestParseManifest(t *testing.T) {
	cfg, err := ParseManifest(testManifest)
	if err != nil {
		t.Fatalf("ParseManifest: %v", err)
	}
	if cfg.LoginVM != "login" {
		t.Fatalf("login VM = %q", cfg.LoginVM)
	}
	if len(cfg.EnvVMs) != 2 || cfg.EnvVMs[0] != "env0" || cfg.EnvVMs[1] != "env1" {
		t.Fatalf("env VMs = %v", cfg.EnvVMs)
	}
	if cfg.TTL != sim.FromMicros(5000) || cfg.WarmPool != 1 {
		t.Fatalf("ttl=%v warm_pool=%d", cfg.TTL, cfg.WarmPool)
	}
	if len(cfg.Rates) != 1 || cfg.Rates[0] != 800 {
		t.Fatalf("rates = %v", cfg.Rates)
	}

	for _, bad := range []string{
		"run_ms = 5",          // key outside a section
		"[serve]\nbogus = 1",  // unknown key
		"[serve]\nrun_ms = 5", // no VMs
		"[serve]\nwarm_pool = 9\n" + testManifest[10:],               // warm pool > envs
		"[serve]\nrates = 0\nttl_ms = 1",                             // bad rate
		testManifest + "\n[vm env2]\nclass = secondary\nvcpus = 0\n", // hafnium rejects
	} {
		if _, err := ParseManifest(bad); err == nil {
			t.Errorf("ParseManifest accepted %q", bad[:min(40, len(bad))])
		}
	}
}

// TestParseManifestRejectsNonFinite feeds NaN and both infinities to
// every float key. A NaN arrival rate once scheduled arrivals without
// bound until the process ran out of memory.
func TestParseManifestRejectsNonFinite(t *testing.T) {
	for _, key := range []string{
		"run_ms", "drain_ms", "ttl_ms", "retry_us", "job_short_us",
		"job_long_us", "job_long_frac", "crash_mean_ms", "rates",
	} {
		for _, val := range []string{"NaN", "Inf", "-Inf"} {
			line := key + " = " + val
			text := strings.Replace(testManifest, "[serve]\n", "[serve]\n"+line+"\n", 1)
			_, err := ParseManifest(text)
			if err == nil || !strings.Contains(err.Error(), key) {
				t.Errorf("%q: err = %v, want a rejection naming %s", line, err, key)
			}
		}
	}
}

func TestServeSmoke(t *testing.T) {
	n, p, cfg := buildPool(t, 7, nil)
	if err := p.Start(cfg.Rates[0]); err != nil {
		t.Fatalf("Start: %v", err)
	}
	n.Run(cfg.Run + cfg.Drain)
	rep := p.Report()
	if err := rep.Check(); err != nil {
		t.Fatalf("Check: %v\n%s", err, rep.Format())
	}
	s := rep.Stats
	if s.Completed < 10 {
		t.Fatalf("only %d jobs completed:\n%s", s.Completed, rep.Format())
	}
	if s.WarmPrepares == 0 || s.ColdPrepares == 0 {
		t.Fatalf("expected both prepare paths (warm=%d cold=%d):\n%s",
			s.WarmPrepares, s.ColdPrepares, rep.Format())
	}
	if rep.MeanWarmPrepUS >= rep.MeanColdPrepUS {
		t.Fatalf("no reuse win: warm %.1fus >= cold %.1fus", rep.MeanWarmPrepUS, rep.MeanColdPrepUS)
	}
	if s.Reaps == 0 {
		t.Fatalf("TTL reaper never fired:\n%s", rep.Format())
	}
	if s.SigVerified == 0 || s.SigFailed != 0 {
		t.Fatalf("signature counters: %+v", s)
	}
}

func TestServeDeterminism(t *testing.T) {
	run := func() string {
		n, p, cfg := buildPool(t, 99, nil)
		if err := p.Start(cfg.Rates[0]); err != nil {
			t.Fatalf("Start: %v", err)
		}
		n.Run(cfg.Run + cfg.Drain)
		return p.Report().Format()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different artifacts:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
}

// TestReapWinsExactTTLTie pins the tie semantics: a job arriving at the
// exact instant an environment's TTL expires finds it already reaped —
// the reap event was scheduled first, so the engine's same-instant FIFO
// lane fires it first — and the job pays a fresh prepare.
func TestReapWinsExactTTLTie(t *testing.T) {
	n, p, cfg := buildPool(t, 3, nil)
	if err := p.park(); err != nil {
		t.Fatalf("park: %v", err)
	}
	eng := n.Machine.Engine
	p.horizon = eng.Now().Add(sim.FromSeconds(1)) // no open-loop arrivals

	demand := sim.FromMicros(100)
	eng.AfterNamed(sim.FromMicros(100), "test.arrive0", func() { p.arrive(demand) })
	end := eng.Now().Add(sim.FromMicros(2000)) // past completion, short of idleSince+TTL
	e := dispatchedEnv(t, eng, p, 0, end)
	n.Run(end.Sub(eng.Now()))
	if p.completed != 1 {
		t.Fatalf("first job: completed=%d", p.completed)
	}
	if e.state != EnvReady {
		t.Fatalf("env %s is %v after completion", e.Name, e.state)
	}
	reapsBefore := e.Reaps

	// Second job's doorbell rings at exactly idleSince+TTL. The arrival,
	// admission hop and dispatch all take nonzero simulated time anyway;
	// the interesting assertion is the reap at the same instant wins and
	// the env is gone before the dispatch could reach it.
	tie := e.idleSince.Add(cfg.TTL)
	eng.ScheduleNamed(tie, "test.arrive1", func() { p.arrive(demand) })
	n.Run(tie.Sub(eng.Now()) + sim.FromMicros(2000))

	if e.Reaps != reapsBefore+1 {
		t.Fatalf("reap lost the tie: reaps %d -> %d", reapsBefore, e.Reaps)
	}
	if p.completed != 2 {
		t.Fatalf("second job never completed (completed=%d)", p.completed)
	}
	st := p.Stats()
	if st.WarmPrepares+st.ColdPrepares < 2 {
		t.Fatalf("second job rode a zombie env: prepares=%d", st.WarmPrepares+st.ColdPrepares)
	}
}

// TestReapRacesCrashReplace pins the reap/crash-replace interaction: the
// reap armed while the environment was Ready must become a no-op once a
// crash (and the watchdog's revival) advances the epoch — the revived
// environment is not torn down by the stale timer.
func TestReapRacesCrashReplace(t *testing.T) {
	n, p, cfg := buildPool(t, 5, nil)
	if err := p.park(); err != nil {
		t.Fatalf("park: %v", err)
	}
	eng := n.Machine.Engine
	p.horizon = eng.Now().Add(sim.FromSeconds(1))

	eng.AfterNamed(sim.FromMicros(100), "test.arrive", func() { p.arrive(sim.FromMicros(100)) })
	end := eng.Now().Add(sim.FromMicros(2000)) // past completion, short of idleSince+TTL
	e := dispatchedEnv(t, eng, p, 0, end)
	n.Run(end.Sub(eng.Now()))
	if p.completed != 1 {
		t.Fatalf("setup job: completed=%d", p.completed)
	}
	if e.state != EnvReady {
		t.Fatalf("env %s is %v", e.Name, e.state)
	}

	// Crash the idle environment halfway through its TTL. The watchdog
	// revives it (restart_from_snapshot policy); the stale reap must not
	// stop the revived instance.
	eng.AfterNamed(cfg.TTL/2, "test.crash", func() {
		if err := n.Hyp.InjectVMFault(e.vm.ID(), "test crash"); err != nil {
			t.Errorf("InjectVMFault: %v", err)
		}
	})
	n.Run(cfg.TTL) // past the stale reap's expiry
	if e.Crashes != 1 || e.Replaces != 1 {
		t.Fatalf("crash-replace did not run: crashes=%d replaces=%d state=%v", e.Crashes, e.Replaces, e.state)
	}
	if e.state != EnvReady {
		t.Fatalf("revived env is %v at the stale reap's expiry, want ready", e.state)
	}

	// The revival armed its own fresh reap; the environment is torn down
	// one full TTL after reintegration, not before.
	n.Run(cfg.TTL + sim.FromMicros(100))
	if e.state != EnvStopped || e.Reaps != 1 {
		t.Fatalf("fresh reap missing: state=%v reaps=%d", e.state, e.Reaps)
	}
}

// TestWarmPoolExhaustion pins the fallback: with warm_pool = 1 and two
// simultaneous prepares, exactly one environment gets the warm rewind
// and the other pays the cold rebuild.
func TestWarmPoolExhaustion(t *testing.T) {
	n, p, _ := buildPool(t, 11, nil)
	if err := p.park(); err != nil {
		t.Fatalf("park: %v", err)
	}
	eng := n.Machine.Engine
	p.horizon = eng.Now().Add(sim.FromSeconds(1))

	// Two jobs in the same instant force both environments to prepare
	// concurrently against a warm budget of one.
	eng.AfterNamed(sim.FromMicros(100), "test.arrive", func() {
		p.arrive(sim.FromMicros(100))
		p.arrive(sim.FromMicros(100))
	})
	n.Run(sim.FromMicros(40000))
	st := p.Stats()
	if p.completed != 2 {
		t.Fatalf("completed=%d want 2 (stats %+v)", p.completed, st)
	}
	if st.WarmPrepares != 1 || st.ColdPrepares != 1 {
		t.Fatalf("warm budget not enforced: warm=%d cold=%d", st.WarmPrepares, st.ColdPrepares)
	}
	if p.WarmPrep.Mean() >= p.ColdPrep.Mean() {
		t.Fatalf("warm prepare %.1fus did not beat cold %.1fus", p.WarmPrep.Mean(), p.ColdPrep.Mean())
	}
}

// TestCrashCampaignTableAndReplays runs the pool at 4000 jobs/s for
// 200 ms under a crash campaign (crash_mean_ms = 20) at seeds 1-10 and
// pins what the job table must get right when crashed environments
// requeue their jobs at the head of the dispatch queue: after every
// completion the table's oldest job is unfinished, so no finished job
// older than the oldest unfinished one stays; after the drain every
// generated job either completed or is still in the table unfinished;
// and every replayed job completes exactly once.
func TestCrashCampaignTableAndReplays(t *testing.T) {
	replays := 0
	for seed := uint64(1); seed <= 10; seed++ {
		n, p, cfg := buildPool(t, seed, func(c *Config) {
			c.CrashMean = sim.FromMicros(20000)
			c.Rates = []float64{4000}
			c.Run = sim.FromMicros(200000)
		})
		completions := map[int]int{}
		replayed := map[int]int{} // crash-replace requeues by job
		onMessage := p.kern.OnMessage
		p.kern.OnMessage = func(msg hafnium.Message) {
			_, arg, _ := bytes.Cut(msg.Payload, space)
			id, _ := parseDecimal(arg)
			before := p.completed
			onMessage(msg)
			if p.completed == before {
				return
			}
			completions[int(id)]++
			if j := p.jobs.get(p.jobs.lo); j != nil && j.DoneAt != 0 {
				t.Fatalf("seed %d: after job %d completed, finished job %d heads the table", seed, id, p.jobs.lo)
			}
		}
		onLifecycle := n.OnLifecycle
		n.OnLifecycle = func(ev hafnium.LifecycleEvent) {
			if e := p.byName[ev.VM]; ev.Kind == "crash" && e != nil && e.job >= 0 {
				replayed[e.job]++
			}
			onLifecycle(ev)
		}
		if err := p.Start(cfg.Rates[0]); err != nil {
			t.Fatalf("Start: %v", err)
		}
		n.Run(cfg.Run + cfg.Drain)

		unfinished := 0
		for id := p.jobs.lo; id < p.jobs.next(); id++ {
			if p.jobs.get(id).DoneAt == 0 {
				unfinished++
			}
		}
		if p.generated != p.completed+unfinished {
			t.Fatalf("seed %d: generated %d != completed %d + %d unfinished in the table",
				seed, p.generated, p.completed, unfinished)
		}
		for id, c := range completions {
			if c != 1 {
				t.Fatalf("seed %d: job %d completed %d times", seed, id, c)
			}
		}
		for id := range replayed {
			if completions[id] != 1 {
				t.Fatalf("seed %d: replayed job %d completed %d times", seed, id, completions[id])
			}
		}
		requeues := 0
		for _, r := range replayed {
			requeues += r
		}
		if requeues != p.replayed {
			t.Fatalf("seed %d: saw %d requeues, pool counted %d replays", seed, requeues, p.replayed)
		}
		replays += requeues
	}
	t.Logf("%d replays at seeds 1-10", replays)
	if replays < 50 {
		t.Fatalf("the crash campaign replayed only %d jobs at seeds 1-10", replays)
	}
}

// TestStaleDoneForRetiredJob sends a completion for a job that has
// finished and left the table. Its ID is below the next one issued, so
// it is still a pool ID: the pool ignores it instead of handing it to
// the kernel's job-control path, whose command counts do not move. A
// "done" for an ID not yet issued is not a pool message and does reach
// that path, which answers it as a command for a VM named "1".
func TestStaleDoneForRetiredJob(t *testing.T) {
	n, p, _ := buildPool(t, 3, nil)
	if err := p.park(); err != nil {
		t.Fatalf("park: %v", err)
	}
	eng := n.Machine.Engine
	p.horizon = eng.Now().Add(sim.FromSeconds(1))
	eng.AfterNamed(sim.FromMicros(100), "test.arrive", func() { p.arrive(sim.FromMicros(100)) })
	n.Run(sim.FromMicros(2000))
	if p.completed != 1 || p.jobs.get(0) != nil || p.jobs.next() != 1 {
		t.Fatalf("job 0: completed=%d, still in the table=%v", p.completed, p.jobs.get(0) != nil)
	}
	env := p.envs[0].vm.VCPU(0)
	send := func(payload string) {
		t.Helper()
		if err := env.SendMessage(hafnium.PrimaryID, []byte(payload)); err != nil {
			t.Fatalf("send %q: %v", payload, err)
		}
		n.Run(sim.FromMicros(500))
	}

	before := p.kern.Stats()
	send("done 0")
	if got := p.kern.Stats(); got.Commands != before.Commands || got.BadCommands != before.BadCommands {
		t.Fatalf("stale done reached the kernel: commands %d -> %d, unknown %d -> %d",
			before.Commands, got.Commands, before.BadCommands, got.BadCommands)
	}
	if p.completed != 1 {
		t.Fatalf("stale done counted: completed=%d", p.completed)
	}

	send("done 1")
	if got := p.kern.Stats(); got.Commands != before.Commands+1 {
		t.Fatalf("done for an unissued ID: kernel commands %d -> %d, want one more", before.Commands, got.Commands)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
