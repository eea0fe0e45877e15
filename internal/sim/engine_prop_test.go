package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refModel is a deliberately naive event queue — a sorted slice ordered
// by (when, seq) with eager deletion — used as the oracle for the real
// engine's 4-ary heap + FIFO lane + tombstone cancellation.
type refModel struct {
	now  Time
	seq  uint64
	evs  []refEvent
	next int // ids are dense; index into issued events
}

type refEvent struct {
	id       int
	when     Time
	seq      uint64
	canceled bool
	fired    bool
}

func (m *refModel) schedule(at Time) int {
	id := m.next
	m.next++
	m.evs = append(m.evs, refEvent{id: id, when: at, seq: m.seq})
	m.seq++
	sort.SliceStable(m.evs, func(i, j int) bool {
		if m.evs[i].when != m.evs[j].when {
			return m.evs[i].when < m.evs[j].when
		}
		return m.evs[i].seq < m.evs[j].seq
	})
	return id
}

func (m *refModel) cancel(id int) {
	for i := range m.evs {
		if m.evs[i].id == id {
			m.evs = append(m.evs[:i], m.evs[i+1:]...)
			return
		}
	}
}

// step pops the front event, advances the clock, and returns its id, or
// -1 when empty.
func (m *refModel) step() int {
	if len(m.evs) == 0 {
		return -1
	}
	ev := m.evs[0]
	m.evs = m.evs[1:]
	m.now = ev.when
	return ev.id
}

// refRegime names one operation mix of TestPropEngineMatchesReferenceModel.
type refRegime int

const (
	regimeUniform refRegime = iota // schedule, cancel and step evenly
	regimeRearm                    // timer re-arms and cancelled bursts
	regimeLanes                    // fixed-delay lanes mixed in, with a snapshot replay
)

// laneDelays are the fixed-delay lanes of the lanes regime.
var laneDelays = []Duration{75, 300}

// TestPropEngineMatchesReferenceModel drives the engine and the reference
// model with identical random schedule/cancel/step interleavings and
// asserts they pop events in exactly the same order. This pins the total
// order (when, seq) across the heap, the same-instant lane and the
// fixed-delay lanes, and the exactness of cancellation. Three regimes
// run: a uniform mix; a timer re-arm regime in which most operations
// cancel a far-future deadline and schedule its replacement, and some
// same-instant bursts are cancelled whole, so the heap compacts many
// times per trial; and a lanes regime that interleaves events on two
// fixed-delay lanes with heap and same-instant events, cancels in all
// three kinds of queue, and rewinds a mid-trial Snapshot with Restore,
// rewinding the model with it. After every operation the heap may hold
// at most 2·(live events in the heap)+compactMin entries: a cancelled
// event must not keep its storage queued.
func TestPropEngineMatchesReferenceModel(t *testing.T) {
	for _, regime := range []refRegime{regimeUniform, regimeRearm, regimeLanes} {
		compactions := 0
		for trial := 0; trial < 50; trial++ {
			compactions += runRefModelTrial(t, trial, regime)
		}
		if regime == regimeRearm && compactions < 50*4 {
			t.Fatalf("re-arm regime compacted %d times in 50 trials; it no longer exercises compaction", compactions)
		}
	}
}

// runRefModelTrial runs one seeded trial of TestPropEngineMatchesReferenceModel
// and reports how many Cancel calls compacted the heap.
func runRefModelTrial(t *testing.T, trial int, regime refRegime) int {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(trial)))
	e := NewEngine(uint64(trial))
	m := &refModel{}
	rearm := regime == regimeRearm
	var lanes []*Delay
	if regime == regimeLanes {
		for _, d := range laneDelays {
			lanes = append(lanes, e.NewDelay(d))
		}
	}

	var engFired, refFired []int
	handles := map[int]Event{} // model id -> engine handle
	var liveIDs []int          // ids believed schedulable/cancellable
	schedule := func(at Time) int {
		id := m.schedule(at)
		handles[id] = e.Schedule(at, func() { engFired = append(engFired, id) })
		return id
	}
	fireArg := func(x any) { engFired = append(engFired, x.(int)) }
	scheduleLane := func(i int) int {
		id := m.schedule(e.Now().Add(laneDelays[i]))
		handles[id] = lanes[i].ScheduleArg("lane", fireArg, id)
		return id
	}
	compactions := 0
	cancel := func(id int) {
		before := e.tombs
		m.cancel(id)
		e.Cancel(handles[id])
		if before > 0 && e.tombs == 0 {
			compactions++
		}
	}
	step := func(op int) {
		id := m.step()
		stepped := e.Step()
		if (id == -1) == stepped {
			t.Fatalf("trial %d op %d: model empty=%v, engine stepped=%v", trial, op, id == -1, stepped)
		}
		if id != -1 {
			refFired = append(refFired, id)
			if e.Now() != m.now {
				t.Fatalf("trial %d op %d: clock %v vs model %v", trial, op, e.Now(), m.now)
			}
		}
	}
	timers := make([]int, 12) // re-arm and lanes regimes: each timer's current deadline
	if rearm || lanes != nil {
		for i := range timers {
			timers[i] = schedule(e.Now().Add(Duration(500 + rng.Intn(1000))))
		}
	}

	// The lanes regime snapshots the engine and the model at op 150,
	// runs on to op 250, and rewinds both before carrying on.
	type rewind struct {
		eng             State
		model           refModel
		handles         map[int]Event
		liveIDs, timers []int
		engLen, refLen  int
	}
	var saved *rewind
	for op := 0; op < 400; op++ {
		if regime == regimeLanes {
			switch op {
			case 150:
				saved = &rewind{
					eng: e.Snapshot(), model: *m, handles: map[int]Event{},
					liveIDs: append([]int(nil), liveIDs...), timers: append([]int(nil), timers...),
					engLen: len(engFired), refLen: len(refFired),
				}
				saved.model.evs = append([]refEvent(nil), m.evs...)
				for id, h := range handles {
					saved.handles[id] = h
				}
			case 250:
				e.Restore(saved.eng)
				*m = saved.model
				m.evs = append([]refEvent(nil), saved.model.evs...)
				handles = map[int]Event{}
				for id, h := range saved.handles {
					handles[id] = h
				}
				liveIDs = append([]int(nil), saved.liveIDs...)
				copy(timers, saved.timers)
				engFired, refFired = engFired[:saved.engLen], refFired[:saved.refLen]
				if e.tombs != 0 || e.Pending() != len(m.evs) {
					t.Fatalf("trial %d: restore left %d tombstones and %d pending; model has %d events",
						trial, e.tombs, e.Pending(), len(m.evs))
				}
			}
		}
		r := rng.Intn(10)
		switch {
		case (rearm && r < 6) || (lanes != nil && r < 2): // re-arm a timer: cancel its deadline, schedule the next
			i := rng.Intn(len(timers))
			cancel(timers[i])
			timers[i] = schedule(e.Now().Add(Duration(500 + rng.Intn(1000))))
		case rearm && r < 7: // a same-instant burst, all of it cancelled
			burst := make([]int, 1+rng.Intn(8))
			for j := range burst {
				burst[j] = schedule(e.Now())
			}
			for _, id := range burst {
				cancel(id)
			}
		case lanes != nil && r < 4: // a fixed-delay lane event
			liveIDs = append(liveIDs, scheduleLane(rng.Intn(len(lanes))))
		case lanes != nil && r < 5: // now, or a heap event that interleaves with the lanes
			at := e.Now()
			if rng.Intn(4) > 0 {
				at = at.Add(Duration(1 + rng.Intn(400)))
			}
			liveIDs = append(liveIDs, schedule(at))
		case r < 5 || (rearm && r < 8): // schedule at now + [0, 50)
			liveIDs = append(liveIDs, schedule(e.Now().Add(Duration(rng.Intn(50)))))
		case r < 7 && !rearm: // cancel a random previously issued event
			if len(liveIDs) == 0 {
				continue
			}
			i := rng.Intn(len(liveIDs))
			id := liveIDs[i]
			liveIDs = append(liveIDs[:i], liveIDs[i+1:]...)
			cancel(id)
		default:
			step(op)
		}
		if len(engFired) != len(refFired) {
			t.Fatalf("trial %d op %d: engine fired %d, model %d", trial, op, len(engFired), len(refFired))
		}
		if bound := 2*(len(e.heap)-e.tombs) + compactMin; len(e.heap) > bound {
			t.Fatalf("trial %d op %d: heap holds %d entries, %d of them tombstones, bound %d",
				trial, op, len(e.heap), e.tombs, bound)
		}
	}

	// Drain both completely.
	for {
		id := m.step()
		stepped := e.Step()
		if (id == -1) != !stepped {
			t.Fatalf("trial %d drain: model empty=%v, engine stepped=%v", trial, id == -1, stepped)
		}
		if id == -1 {
			break
		}
		refFired = append(refFired, id)
	}

	if len(engFired) != len(refFired) {
		t.Fatalf("trial %d: engine fired %d events, model %d", trial, len(engFired), len(refFired))
	}
	for i := range refFired {
		if engFired[i] != refFired[i] {
			t.Fatalf("trial %d: pop order diverges at %d: engine %d, model %d",
				trial, i, engFired[i], refFired[i])
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("trial %d: engine still reports %d pending after drain", trial, e.Pending())
	}
	return compactions
}

// TestDelayLaneOutOfOrderPanics checks the fixed-delay lane's ordering
// guard: a push whose time lies before the lane's tail would break the
// FIFO's sort, so it panics instead. The engine's clock never runs
// backwards, so the test winds it back by hand.
func TestDelayLaneOutOfOrderPanics(t *testing.T) {
	e := NewEngine(1)
	l := e.NewDelay(100)
	nop := func(any) {}
	e.Run(50)
	l.ScheduleArg("a", nop, nil) // tail at 150
	e.now = 10
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order fixed-delay push did not panic")
		}
	}()
	l.ScheduleArg("b", nop, nil) // at 110, before the tail
}

// TestNewDelayRejectsNonPositive pins the lane's precondition: a zero
// delay would land on the same-instant lane's territory.
func TestNewDelayRejectsNonPositive(t *testing.T) {
	for _, d := range []Duration{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDelay(%v) did not panic", d)
				}
			}()
			NewEngine(1).NewDelay(d)
		}()
	}
}

// TestEngineCompactionAcrossSnapshot snapshots an engine while cancelled
// timer deadlines are queued (in the heap and in the same-instant lane),
// forces a compaction by re-arming, then restores and replays: the same
// events must fire in the same order, and Restore must reinstall none of
// the tombstones (a snapshot records live events only).
func TestEngineCompactionAcrossSnapshot(t *testing.T) {
	e := NewEngine(1)
	var fired []int
	timers := make([]Event, 8)
	arm := func(i int, at Time) {
		e.Cancel(timers[i])
		timers[i] = e.Schedule(at, func() { fired = append(fired, i) })
	}
	for i := range timers {
		arm(i, Time(1000+i))
	}
	for k := 0; k < 10; k++ {
		arm(k%len(timers), Time(2000+k))
	}
	for k := 0; k < 4; k++ { // a same-instant burst, cancelled in the lane
		e.Cancel(e.Schedule(e.Now(), func() { fired = append(fired, -1) }))
	}
	if e.tombs != 10 || e.Pending() != len(timers) {
		t.Fatalf("before snapshot: %d heap tombstones, %d pending; want 10 and %d", e.tombs, e.Pending(), len(timers))
	}
	snap := e.Snapshot()
	saved := append([]Event(nil), timers...)

	run := func() []int {
		fired = nil
		for k := 0; k < 40; k++ {
			arm((k*3)%len(timers), Time(3000+7*k))
		}
		if bound := 2*e.Pending() + compactMin; len(e.heap) > bound {
			t.Fatalf("re-arming did not compact: heap %d slots, bound %d", len(e.heap), bound)
		}
		e.RunAll()
		return fired
	}
	first := run()
	if len(first) != len(timers) {
		t.Fatalf("fired %v, want one event per timer", first)
	}

	e.Restore(snap)
	copy(timers, saved)
	// Neither the ten heap tombstones nor the lane's four come back.
	if e.tombs != 0 || len(e.heap) != len(timers) || !e.nowq.empty() || e.Pending() != len(timers) {
		t.Fatalf("after restore: %d tombstones, heap %d, lane %d, %d pending; want 0, %d, 0, %d",
			e.tombs, len(e.heap), len(e.nowq.queued()), e.Pending(), len(timers), len(timers))
	}
	if second := run(); fmt.Sprint(second) != fmt.Sprint(first) {
		t.Fatalf("replay after restore diverged:\n  first:  %v\n  second: %v", first, second)
	}
}

// TestEngineCompactsAgainstHeapLiveEvents pins the compaction rule's
// base: the heap's own live events, not Pending(). A hundred events wait
// on a fixed-delay lane while ten heap timers are re-armed again and
// again. Pending() stays above 100 throughout, so a rule comparing the
// tombstones with it would let them pile up to a hundred; the heap must
// instead stay within 2·(live events in the heap)+compactMin entries.
func TestEngineCompactsAgainstHeapLiveEvents(t *testing.T) {
	e := NewEngine(1)
	lane := e.NewDelay(1_000_000)
	for i := 0; i < 100; i++ {
		lane.ScheduleArg("parked", func(any) {}, nil)
	}
	timers := make([]Event, 10)
	for k := 0; k < 200; k++ {
		i := k % len(timers)
		e.Cancel(timers[i])
		timers[i] = e.Schedule(Time(1000+k), func() {})
		if live := len(e.heap) - e.tombs; len(e.heap) > 2*live+compactMin {
			t.Fatalf("re-arm %d: heap holds %d entries for %d live heap events, bound %d",
				k, len(e.heap), live, 2*live+compactMin)
		}
	}
	if e.Pending() != 100+len(timers) {
		t.Fatalf("Pending = %d, want %d", e.Pending(), 100+len(timers))
	}
}

// TestEngineCompactsAsEventsFire pins the storage bound when live events
// drain by firing rather than by Cancel: tombstones that were fewer than
// the live events when cancelled outnumber them once the near events
// have fired, and the fired events must trigger the compaction.
func TestEngineCompactsAsEventsFire(t *testing.T) {
	e := NewEngine(1)
	far := make([]Event, 20)
	for i := range far {
		far[i] = e.Schedule(Time(1_000_000+i), func() {})
	}
	for i := 0; i < 40; i++ {
		e.Schedule(Time(10+i), func() {})
	}
	for _, ev := range far {
		e.Cancel(ev)
	}
	if e.tombs != len(far) {
		t.Fatalf("%d tombstones with %d live events, want %d (no compaction yet)", e.tombs, e.Pending(), len(far))
	}
	for e.Pending() > 0 {
		e.Step()
		if bound := 2*e.Pending() + compactMin; len(e.heap) > bound {
			t.Fatalf("heap holds %d slots for %d pending events, bound %d", len(e.heap), e.Pending(), bound)
		}
	}
	if len(e.heap) != 0 {
		t.Fatalf("drained engine still holds %d heap slots", len(e.heap))
	}
}
