package main

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"khsim/internal/core"
	"khsim/internal/harness"
	"khsim/internal/serve"
	"khsim/internal/sim"
	"khsim/internal/stats"
)

// serveRates is the arrival-rate grid in jobs per second: from a lightly
// loaded pool to past the point where Kitten's 10 Hz tick makes dispatch
// the tail.
var serveRates = []float64{1000, 2000, 4000, 5000, 6000, 8000}

const (
	// serveRate is the cell the p50/p99 headline and the harness
	// comparison use.
	serveRate = 4000
	// serveLimitUS is the p99 latency limit max_rate applies.
	serveLimitUS = 10_000
)

// servePrimaries are the grid's primary-kernel dimension, in the order
// harness.RunServingManifest runs them.
var servePrimaries = []struct {
	name  string
	sched core.Scheduler
}{
	{"kitten", core.SchedulerKitten},
	{"linux", core.SchedulerLinux},
}

// serveCell pools one (primary, rate) cell over the reference seeds.
type serveCell struct {
	lat                  stats.Sample // admission-to-completion latency, µs
	generated, completed int
}

// serveWork is the ephemeral-VM serving pool. One unit is one seed's full
// grid: both primaries at every rate, each cell a fresh stack running
// open-loop load for cfg.Run and draining for cfg.Drain of simulated
// time. Arrivals are scheduled in simulated time and latency runs from
// each job's simulated arrival, so the generator is never late. The run
// is steady state in the engine, kernel dispatch and the hafnium mailbox
// and login hops; construction is a few percent of it.
type serveWork struct {
	cfg       serve.Config
	checkText string // the same manifest with the serveRate column alone
	ref       int

	cells  [2][]serveCell
	stats  serve.PoolStats // summed over reference cells
	warmUS float64         // Σ warm prepare time over reference cells
	coldUS float64
	ledger uint64
	counts stackCounts
	unit0  [2]serve.Report // unit 0's serveRate cells, for the harness comparison
}

func newServe(tiny bool) (*serveWork, error) {
	runMS, drainMS, ref := 4000, 500, 4
	if tiny {
		runMS, drainMS, ref = 200, 100, 1
	}
	var grid []string
	for _, rate := range serveRates {
		grid = append(grid, fmt.Sprint(rate))
	}
	cfg, err := serve.ParseManifest(servingManifest(runMS, drainMS, strings.Join(grid, ", ")))
	if err != nil {
		return nil, err
	}
	if cfg.Run != sim.FromMicros(float64(runMS)*1000) || len(cfg.Rates) != len(serveRates) {
		return nil, fmt.Errorf("serve: harness.ServingManifestText no longer has the [serve] lines the benchmark rewrites")
	}
	s := &serveWork{cfg: cfg, checkText: servingManifest(runMS, drainMS, fmt.Sprint(serveRate)), ref: ref}
	for pi := range s.cells {
		s.cells[pi] = make([]serveCell, len(serveRates))
	}
	return s, nil
}

// servingManifest is harness's built-in serving scenario with its run and
// drain lengths and its rate list replaced.
func servingManifest(runMS, drainMS int, rates string) string {
	return strings.NewReplacer(
		"run_ms = 400\n", fmt.Sprintf("run_ms = %d\n", runMS),
		"drain_ms = 200\n", fmt.Sprintf("drain_ms = %d\n", drainMS),
		"rates = 50, 500, 2000, 8000\n", "rates = "+rates+"\n",
	).Replace(harness.ServingManifestText)
}

func (s *serveWork) refUnits() int           { return s.ref }
func (s *serveWork) prepare(r *runner) error { return nil }

func (s *serveWork) unit(r *runner, i int, seed uint64) error {
	for pi, prim := range servePrimaries {
		for ri, rate := range serveRates {
			rep, err := s.cell(r, pi, ri, seed, i < s.ref)
			if err != nil {
				return fmt.Errorf("%s@%g: %w", prim.name, rate, err)
			}
			r.check(fmt.Sprintf("%s@%g report", prim.name, rate), rep.Check())
			if i == 0 && rate == serveRate {
				s.unit0[pi] = rep
			}
		}
	}
	if i == 0 {
		s.compare(r, seed)
	}
	return nil
}

// cell runs one (primary, rate) cell on a fresh stack, built with the
// calls harness's serving sweep makes.
func (s *serveWork) cell(r *runner, pi, ri int, seed uint64, ref bool) (serve.Report, error) {
	var (
		n *core.SecureNode
		p *serve.Pool
	)
	err := r.call("core.build", func() (err error) {
		n, err = core.NewSecureNode(core.Options{Seed: seed, Manifest: s.cfg.NodePlan, Scheduler: servePrimaries[pi].sched})
		return err
	})
	if err != nil {
		return serve.Report{}, err
	}
	err = r.call("core.attach", func() (err error) {
		p, err = serve.NewPool(n, s.cfg, seed)
		return err
	})
	if err != nil {
		return serve.Report{}, err
	}
	if err := r.call("core.boot", n.Boot); err != nil {
		return serve.Report{}, err
	}
	if err := p.Start(serveRates[ri]); err != nil {
		return serve.Report{}, err
	}
	r.run(n.Machine.Engine, func() { n.Run(s.cfg.Run + s.cfg.Drain) })
	rep := p.Report()
	r.hold(n)
	if ref {
		st := rep.Stats
		c := &s.cells[pi][ri]
		c.lat.AddAll(p.Latency.Values())
		c.generated += st.Generated
		c.completed += st.Completed
		s.stats.Generated += st.Generated
		s.stats.Completed += st.Completed
		s.stats.AdmitRetries += st.AdmitRetries
		s.stats.DoneRetries += st.DoneRetries
		s.stats.Reaps += st.Reaps
		s.stats.WarmPrepares += st.WarmPrepares
		s.stats.ColdPrepares += st.ColdPrepares
		s.stats.SigVerified += st.SigVerified
		s.warmUS += rep.MeanWarmPrepUS * float64(st.WarmPrepares)
		s.coldUS += rep.MeanColdPrepUS * float64(st.ColdPrepares)
		s.ledger += rep.LedgerLen
		s.counts.add(countStack(n.Machine, n.Hyp), 1)
	}
	return rep, nil
}

// compare checks unit 0's serveRate cells against
// harness.RunServingManifest on the same seed.
func (s *serveWork) compare(r *runner, seed uint64) {
	var want *harness.ServingReport
	err := r.call("harness.check", func() (err error) {
		want, err = harness.RunServingManifest(s.checkText, seed)
		return err
	})
	if err == nil && len(want.Cells) != len(servePrimaries) {
		err = fmt.Errorf("harness ran %d cells, want %d", len(want.Cells), len(servePrimaries))
	}
	for pi := 0; err == nil && pi < len(want.Cells); pi++ {
		if c := want.Cells[pi]; c.Primary != servePrimaries[pi].name || c.Report != s.unit0[pi] {
			err = fmt.Errorf("%s@%d differs from harness.RunServingManifest:\n%s\nharness:\n%s",
				servePrimaries[pi].name, serveRate, s.unit0[pi].Format(), c.Report.Format())
		}
	}
	r.check("serve matches harness", err)
}

func (s *serveWork) finish(r *runner) {
	s.counts.report(r)
	at := slices.Index(serveRates, serveRate)
	kitten, linux := &s.cells[0][at].lat, &s.cells[1][at].lat
	if kitten.N() > 0 && linux.N() > 0 {
		r.set("serve.kitten.p50_ms", kitten.Median()/1000)
		r.set("serve.kitten.p99_ms", tail(kitten, 99)/1000)
		r.set("serve.linux.p99_ms", tail(linux, 99)/1000)
		r.set("serve.p999_ms", tail(kitten, 99.9)/1000)
	}
	r.set("serve.latency_n", float64(kitten.N()))
	r.set("serve.kitten.max_rate", s.maxRate(0))
	r.set("serve.linux.max_rate", s.maxRate(1))
	st := s.stats
	r.set("serve.generated", float64(st.Generated))
	r.set("serve.completed", float64(st.Completed))
	r.set("serve.admit_retries", float64(st.AdmitRetries))
	r.set("serve.done_retries", float64(st.DoneRetries))
	r.set("serve.reaps", float64(st.Reaps))
	r.set("serve.warm_prepares", float64(st.WarmPrepares))
	r.set("serve.cold_prepares", float64(st.ColdPrepares))
	if st.WarmPrepares > 0 {
		r.set("serve.prepare_warm_us", s.warmUS/float64(st.WarmPrepares))
	}
	if st.ColdPrepares > 0 {
		r.set("serve.prepare_cold_us", s.coldUS/float64(st.ColdPrepares))
	}
	r.set("tz.signatures", float64(st.SigVerified))
	r.set("tz.ledger_records", float64(s.ledger))
}

// maxRate is the highest grid rate at which the primary's pooled p99
// stays within the latency limit and every generated job completed.
func (s *serveWork) maxRate(pi int) float64 {
	best := 0.0
	for ri, rate := range serveRates {
		c := &s.cells[pi][ri]
		if c.lat.N() > 0 && c.completed == c.generated && tail(&c.lat, 99) <= serveLimitUS {
			best = rate
		}
	}
	return best
}

// tail is the p-th percentile, lowered where needed so that at least ten
// samples lie beyond it; never below the median.
func tail(s *stats.Sample, p float64) float64 {
	q := math.Min(p, 100*(1-10/float64(s.N())))
	return s.Percentile(math.Max(q, 50))
}
