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

// TestPropEngineMatchesReferenceModel drives the engine and the reference
// model with identical random schedule/cancel/step interleavings and
// asserts they pop events in exactly the same order. This pins the total
// order (when, seq) across the heap and the same-instant fast lane, and
// the exactness of cancellation. Two regimes run: a uniform mix, and a
// timer re-arm regime in which most operations cancel a far-future
// deadline and schedule its replacement, and some same-instant bursts
// are cancelled whole, so the heap compacts many times per trial. After
// every operation the heap may hold at most 2·Pending()+compactMin
// slots: a cancelled event must not keep its storage queued.
func TestPropEngineMatchesReferenceModel(t *testing.T) {
	for _, rearm := range []bool{false, true} {
		compactions := 0
		for trial := 0; trial < 50; trial++ {
			compactions += runRefModelTrial(t, trial, rearm)
		}
		if rearm && compactions < 50*4 {
			t.Fatalf("re-arm regime compacted %d times in 50 trials; it no longer exercises compaction", compactions)
		}
	}
}

// runRefModelTrial runs one seeded trial of TestPropEngineMatchesReferenceModel
// and reports how many Cancel calls compacted the heap.
func runRefModelTrial(t *testing.T, trial int, rearm bool) int {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(trial)))
	e := NewEngine(uint64(trial))
	m := &refModel{}

	var engFired, refFired []int
	handles := map[int]Event{} // model id -> engine handle
	var liveIDs []int          // ids believed schedulable/cancellable
	schedule := func(at Time) int {
		id := m.schedule(at)
		handles[id] = e.Schedule(at, func() { engFired = append(engFired, id) })
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
	timers := make([]int, 12) // re-arm regime: each timer's current deadline
	if rearm {
		for i := range timers {
			timers[i] = schedule(e.Now().Add(Duration(500 + rng.Intn(1000))))
		}
	}

	for op := 0; op < 400; op++ {
		r := rng.Intn(10)
		switch {
		case rearm && r < 6: // re-arm a timer: cancel its deadline, schedule the next
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
		if bound := 2*e.Pending() + compactMin; len(e.heap) > bound {
			t.Fatalf("trial %d op %d: heap holds %d slots for %d pending events, bound %d",
				trial, op, len(e.heap), e.Pending(), bound)
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

// TestEngineCompactionAcrossSnapshot snapshots an engine while cancelled
// timer deadlines are queued (in the heap and in the same-instant lane),
// forces a compaction by re-arming, then restores and replays: the same
// events must fire in the same order, and Restore must recount the
// tombstones it reinstalls.
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
	// The lane's four tombstones come back as heap tombstones.
	if e.tombs != 14 || len(e.heap) != 22 || e.Pending() != len(timers) {
		t.Fatalf("after restore: %d tombstones, heap %d, %d pending; want 14, 22, %d",
			e.tombs, len(e.heap), e.Pending(), len(timers))
	}
	if second := run(); fmt.Sprint(second) != fmt.Sprint(first) {
		t.Fatalf("replay after restore diverged:\n  first:  %v\n  second: %v", first, second)
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
