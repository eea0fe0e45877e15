package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"khsim/internal/sim"
	"khsim/internal/stats"
)

// benchWorkload is one of the benchmark's traffic mixes: a sequence of
// units of fixed work, unit i driven by seed i of the run's seed stream.
type benchWorkload interface {
	// refUnits is how many leading units always run, whatever the time
	// budget; the simulated metrics come from these units alone.
	refUnits() int
	// prepare does the workload's one-time set-up before unit 0.
	prepare(r *runner) error
	// unit runs unit i. Failed checks go through r.check; a returned
	// error means the unit could not run at all.
	unit(r *runner, i int, seed uint64) error
	// finish sets the simulated metrics gathered from the reference units.
	finish(r *runner)
}

// setupKinds are the construction calls: their time is a unit's set-up.
var setupKinds = map[string]bool{"core.build": true, "core.attach": true, "core.boot": true}

// excludedKinds are calls a unit makes that its wall time leaves out: the
// reference checks against harness, and probes that build stacks only to
// measure set-up time.
var excludedKinds = map[string]bool{"harness.check": true, "probe": true}

// frame is an open timed call.
type frame struct {
	kind  string
	start time.Time
	child time.Duration // time inside nested timed calls
}

// traceEvent is one Chrome trace-event "complete" span.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// runner drives one workload and collects everything it reports.
type runner struct {
	name   string
	out    io.Writer
	seeds  sim.SeedStream
	budget time.Duration
	dir    string // trace output directory; "" for an untraced run

	t0       time.Time
	tracing  bool // inside the traced half of a traced run
	unit     int
	frames   []frame
	setup    time.Duration // set-up time of the current unit
	excluded time.Duration // time of the current unit spent in excluded calls
	keep     any           // unit 0's last stack, live until the heap is measured

	unitMS, tracedMS, setupS stats.Sample
	setupCalls               map[string]*stats.Sample // milliseconds per construction call, whole run
	self                     map[string]time.Duration // self time per call kind, traced units
	tracedWall               time.Duration
	events                   []traceEvent
	simWall                  time.Duration
	simEvents                uint64
	liveHeapMB               float64
	units                    int

	attempted, failed int
	values            map[string]float64
}

func newRunner(name string, out io.Writer, o options) *runner {
	r := &runner{
		name:       name,
		out:        out,
		seeds:      sim.NewSeedStream(o.seed),
		budget:     time.Duration(o.seconds * float64(time.Second)),
		unit:       -1,
		setupCalls: make(map[string]*stats.Sample),
		self:       make(map[string]time.Duration),
		values:     make(map[string]float64),
	}
	if o.trace {
		r.dir = filepath.Join(o.traceDir, name)
	}
	return r
}

// call times fn as one call into a layer. Construction calls add to the
// unit's set-up time, excluded calls leave the unit's wall time, and in
// the traced half every call becomes a span of the current unit.
func (r *runner) call(kind string, fn func() error) error {
	r.frames = append(r.frames, frame{kind: kind, start: time.Now()})
	err := fn()
	f := r.frames[len(r.frames)-1]
	r.frames = r.frames[:len(r.frames)-1]
	d := time.Since(f.start)
	if n := len(r.frames); n > 0 {
		r.frames[n-1].child += d
		if excludedKinds[kind] && r.frames[n-1].kind == "unit" {
			r.excluded += d
		}
	}
	if setupKinds[kind] {
		r.setup += d
		s := r.setupCalls[kind]
		if s == nil {
			s = &stats.Sample{}
			r.setupCalls[kind] = s
		}
		s.Add(ms(d))
	}
	if r.tracing {
		r.self[kind] += d - f.child
		r.events = append(r.events, traceEvent{
			Name: kind, Cat: "bench", Ph: "X",
			TS: us(f.start.Sub(r.t0)), Dur: us(d), PID: 1, TID: 1,
			Args: map[string]int{"unit": r.unit},
		})
	}
	return err
}

// run times one advance of the simulation and accounts its events.
func (r *runner) run(eng *sim.Engine, advance func()) {
	f0 := eng.Fired()
	start := time.Now()
	_ = r.call("sim.run", func() error { advance(); return nil }) // advance cannot fail
	r.simulated(time.Since(start), eng.Fired()-f0)
}

// simulated accounts host time spent firing events for sim.ns_per_event.
func (r *runner) simulated(d time.Duration, events uint64) {
	r.simWall += d
	r.simEvents += events
}

// check counts one attempted operation or check; a non-nil err counts it
// as failed and prints it by name.
func (r *runner) check(name string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(r.out, "FAIL %s %s: %v\n", r.name, name, err)
	}
}

// hold keeps v, a stack unit 0 built, alive until the live heap is
// measured after that unit.
func (r *runner) hold(v any) {
	if r.unit == 0 {
		r.keep = v
	}
}

// setupSample closes one set-up measurement.
func (r *runner) setupSample() {
	if r.setup > 0 {
		r.setupS.Add(r.setup.Seconds())
	}
	r.setup = 0
}

// set records a metric value.
func (r *runner) set(name string, v float64) { r.values[name] = v }

// loop prepares the workload and runs units until the reference units are
// done and the time budget is spent. A traced run starts its CPU profile
// and spans halfway through the budget and runs at least one traced unit.
func (r *runner) loop(w benchWorkload) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.t0 = time.Now()
	if err := w.prepare(r); err != nil {
		r.check("prepare", err)
		return nil
	}
	var profile *os.File
	for i := 0; ; i++ {
		if i >= w.refUnits() {
			elapsed := time.Since(r.t0)
			if r.dir == "" && elapsed >= r.budget {
				break
			}
			if r.dir != "" && !r.tracing && elapsed >= r.budget/2 {
				f, err := r.startTracing()
				if err != nil {
					return err
				}
				profile = f
			}
			if r.tracing && elapsed >= r.budget && r.tracedMS.N() > 0 {
				break
			}
		}
		r.unit, r.setup, r.excluded = i, 0, 0
		start := time.Now()
		err := r.call("unit", func() error { return w.unit(r, i, r.seeds.Seed(i)) })
		full := time.Since(start)
		r.units++
		if err != nil {
			r.check(fmt.Sprintf("unit %d", i), err)
			break
		}
		if r.tracing {
			r.tracedMS.Add(ms(full - r.excluded))
			r.tracedWall += full
		} else {
			r.unitMS.Add(ms(full - r.excluded))
		}
		r.setupSample()
		if i == 0 {
			runtime.GC()
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			r.liveHeapMB = float64(m.HeapAlloc) / 1e6
			r.keep = nil
		}
	}
	r.unit = -1
	if profile != nil {
		pprof.StopCPUProfile()
		if err := profile.Close(); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	units := float64(r.units)
	r.set("alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/units)
	r.set("gc.cycles", float64(m1.NumGC-m0.NumGC)/units)
	r.set("gc.pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6/units)
	return nil
}

// startTracing switches to the traced half: spans on, CPU profile on.
func (r *runner) startTracing() (*os.File, error) {
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(r.dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	r.tracing = true
	return f, nil
}

// hostMetrics derives the wall-clock metrics; in a traced run it also
// writes the trace and buckets the CPU profile.
func (r *runner) hostMetrics() error {
	r.set("unit_ms", median(&r.unitMS))
	r.set("setup_s", median(&r.setupS))
	r.set("live_heap_mb", r.liveHeapMB)
	if r.simEvents > 0 {
		r.set("sim.ns_per_event", float64(r.simWall.Nanoseconds())/float64(r.simEvents))
	}
	for _, kind := range []string{"core.build", "core.boot"} {
		if s := r.setupCalls[kind]; s != nil {
			r.set(kind+"_ms", median(s))
		}
	}
	if !r.tracing {
		return nil
	}
	rest := 100.0
	for _, sp := range spanPct {
		pct := 100 * float64(r.self[sp.kind]) / float64(r.tracedWall)
		r.set(sp.metric, pct)
		rest -= pct
	}
	r.set("unit.self_pct", rest)
	r.set("prof.overhead_pct", 100*(median(&r.tracedMS)/median(&r.unitMS)-1))
	if err := r.writeTrace(); err != nil {
		return err
	}
	shares, err := profileShares(filepath.Join(r.dir, "cpu.pprof"))
	if err != nil {
		return err
	}
	for name, v := range shares {
		r.set(name, v)
	}
	return nil
}

// writeTrace writes the traced units' spans as Chrome trace-event JSON.
func (r *runner) writeTrace() error {
	data, err := json.Marshal(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{r.events, "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(r.dir, "trace.json"), data, 0o644)
}

// jsonMetric is one metric in the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes one "workload metric value unit" line per metric the run
// produced, then the JSON result line: the end-to-end metrics for an
// untraced run, the per-layer ones for a traced run.
func (r *runner) print() error {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if v, ok := r.values[d.name]; ok {
			fmt.Fprintf(r.out, "%s %s %s %s\n", r.name, d.name, strconv.FormatFloat(finite(v), 'f', -1, 64), d.unit)
		}
	}
	defs := endToEnd
	if r.dir != "" {
		defs = perLayer
	}
	res := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = jsonMetric{Value: finite(r.values[d.name]), Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(r.out, "%s\n", line)
	return err
}

// median is the sample's median, or 0 for an empty sample.
func median(s *stats.Sample) float64 {
	if s.N() == 0 {
		return 0
	}
	return s.Median()
}

// finite maps NaN and infinities, which JSON cannot carry, to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
