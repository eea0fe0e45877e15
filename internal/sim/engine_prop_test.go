package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// refModel is a deliberately naive event queue — a sorted slice ordered
// by (when, seq) with eager deletion — used as the oracle for the real
// engine's two heaps.
type refModel struct {
	now  Time
	seq  uint64
	evs  []refEvent
	next int // ids are dense; index into issued events
}

type refEvent struct {
	id   int
	when Time
	seq  uint64
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

// when reports the time of queued event id.
func (m *refModel) when(id int) Time {
	for _, ev := range m.evs {
		if ev.id == id {
			return ev.when
		}
	}
	return -1
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
	regimeUniform   refRegime = iota // schedule and step evenly
	regimeRegisters                  // registers armed, re-armed, disarmed and fired among future and same-instant heap events
	regimeSnapshot                   // the register regime plus ScheduleArg heap events, with a snapshot replay
)

// tick is the grid the register regimes draw future times from, so
// registers and heap events often fall due at one instant and only seq
// orders them.
const tick Duration = 25

// regCoverage counts what a trial's register operations exercised;
// cbArmed and cbDisarmed count the arms and disarms event callbacks made
// themselves.
type regCoverage struct {
	earlier, later, atNow, fired, disarmed, survived int
	cbArmed, cbDisarmed                              int
}

// TestPropEngineMatchesReferenceModel drives the engine and the reference
// model with identical random interleavings of schedules, register arms
// and disarms, and steps, and asserts they fire events in exactly the
// same order. This pins the total order (when, seq) across the event
// heap and the register heap. A register's pending firing is one model
// event: arming cancels the old one and schedules the new one, disarming
// cancels it. Three regimes run: a uniform mix of schedules and steps; a
// register regime that re-arms registers earlier and later, arms them at
// now while a same-instant event heads the event heap, disarms them and
// lets them fire, among future and same-instant heap events; and a
// snapshot regime that adds heap events
// scheduled with ScheduleArg and rewinds a mid-trial Snapshot with
// Restore, rewinding the model with it, where a register created after
// the snapshot must come back disarmed. In both register regimes every event callback, a
// firing register's included, itself arms, re-arms and disarms
// registers, so registers take over the entries that fired or were
// disarmed in the same event. After every operation, and inside those
// callbacks after each of theirs, each register is armed exactly when
// the model holds its firing, for the model's time, and the pending
// counts agree.
func TestPropEngineMatchesReferenceModel(t *testing.T) {
	for _, regime := range []refRegime{regimeUniform, regimeRegisters, regimeSnapshot} {
		var cov regCoverage
		for trial := 0; trial < 50; trial++ {
			runRefModelTrial(t, trial, regime, &cov)
		}
		if regime == regimeUniform {
			continue
		}
		if cov.earlier < 100 || cov.later < 100 || cov.atNow < 50 || cov.fired < 100 || cov.disarmed < 100 ||
			cov.cbArmed < 100 || cov.cbDisarmed < 50 {
			t.Fatalf("regime %d exercised too little: %+v", regime, cov)
		}
		if regime == regimeSnapshot && cov.survived < 50 {
			t.Fatalf("snapshot regime: a post-snapshot register survived a restore in only %d trials", cov.survived)
		}
	}
}

// runRefModelTrial runs one seeded trial of
// TestPropEngineMatchesReferenceModel, adding what its register
// operations exercised to cov.
func runRefModelTrial(t *testing.T, trial int, regime refRegime, cov *regCoverage) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(trial)))
	e := NewEngine(uint64(trial))
	m := &refModel{}

	// onFire, when set, runs at the end of every event callback.
	var onFire func()
	var engFired, refFired []int
	schedule := func(at Time) {
		id := m.schedule(at)
		e.ScheduleNamed(at, "ev", func() {
			engFired = append(engFired, id)
			if onFire != nil {
				onFire()
			}
		})
	}
	fireArg := func(x any) {
		engFired = append(engFired, x.(int))
		if onFire != nil {
			onFire()
		}
	}
	scheduleArg := func(at Time) {
		e.ScheduleArg(at, "arg", fireArg, m.schedule(at))
	}

	// regID[i] is the model id of register i's pending firing, -1 while
	// it is disarmed.
	var regs []*Register
	var regID []int
	newReg := func() {
		i := len(regs)
		regs = append(regs, e.NewRegister("reg", func() {
			engFired = append(engFired, regID[i])
			regID[i] = -1
			cov.fired++
			if onFire != nil {
				onFire()
			}
		}))
		regID = append(regID, -1)
	}
	arm := func(i int, at Time) {
		if id := regID[i]; id >= 0 {
			if prev := m.when(id); at < prev {
				cov.earlier++
			} else if at > prev {
				cov.later++
			}
			m.cancel(id)
		}
		if at == e.Now() && len(e.heap) > 0 && e.heap[0].when == at {
			cov.atNow++
		}
		regID[i] = m.schedule(at)
		regs[i].Arm(at)
	}
	disarm := func(i int) {
		if id := regID[i]; id >= 0 {
			m.cancel(id)
			regID[i] = -1
			cov.disarmed++
		}
		regs[i].Disarm()
	}
	// checkRegs compares the pending count and every register's Armed
	// and When with the model.
	checkRegs := func(op int) {
		if e.Pending() != len(m.evs) {
			t.Fatalf("trial %d op %d: engine has %d pending, model %d", trial, op, e.Pending(), len(m.evs))
		}
		for i, r := range regs {
			armed := regID[i] >= 0
			if r.Armed() != armed || (armed && r.When() != m.when(regID[i])) || (!armed && r.When() != 0) {
				t.Fatalf("trial %d op %d: register %d armed=%v for %v, model armed=%v",
					trial, op, i, r.Armed(), r.When(), armed)
			}
		}
	}
	check := func(op int) {
		if len(engFired) != len(refFired) {
			t.Fatalf("trial %d op %d: engine fired %d, model %d", trial, op, len(engFired), len(refFired))
		}
		checkRegs(op)
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
	if regime != regimeUniform {
		for i := 0; i < 8; i++ {
			newReg()
		}
		// Every event callback, a register's included, arms, re-arms or
		// disarms up to three registers, at now only rarely so that
		// same-instant chains end, checking the registers and the pending
		// count after each.
		onFire = func() {
			for k := rng.Intn(4); k > 0; k-- {
				j := rng.Intn(len(regs))
				if rng.Intn(3) == 0 {
					if regID[j] >= 0 {
						cov.cbDisarmed++
					}
					disarm(j)
				} else {
					arm(j, e.Now().Add(tick*Duration(rng.Intn(20))))
					cov.cbArmed++
				}
				checkRegs(-1)
			}
		}
	}

	// The snapshot regime snapshots the engine and the model at op 150,
	// creates and arms one more register at op 200, and rewinds both at
	// op 250 before carrying on; the late register stays, disarmed.
	type rewind struct {
		eng            State
		model          refModel
		regID          []int
		engLen, refLen int
	}
	var saved *rewind
	for op := 0; op < 400; op++ {
		if regime == regimeSnapshot {
			switch op {
			case 150:
				saved = &rewind{
					eng: e.Snapshot(), model: *m, regID: append([]int(nil), regID...),
					engLen: len(engFired), refLen: len(refFired),
				}
				saved.model.evs = append([]refEvent(nil), m.evs...)
			case 200:
				newReg()
				arm(len(regs)-1, e.Now().Add(tick*Duration(1+rng.Intn(40))))
			case 250:
				e.Restore(saved.eng)
				late := regs[len(saved.regID):]
				*m = saved.model
				m.evs = append([]refEvent(nil), saved.model.evs...)
				regID = append(regID[:0], saved.regID...)
				for range late {
					regID = append(regID, -1)
				}
				engFired, refFired = engFired[:saved.engLen], refFired[:saved.refLen]
				for _, r := range late {
					if r.Armed() {
						t.Fatalf("trial %d: a register created after the snapshot is armed after restore", trial)
					}
				}
				cov.survived++
				check(op)
			}
		}
		r := rng.Intn(10)
		switch {
		case regime == regimeUniform && r < 5: // schedule at now + [0, 50)
			schedule(e.Now().Add(Duration(rng.Intn(50))))
		case regime == regimeUniform:
			step(op)
		case r < 3: // arm or re-arm a register: at now, or earlier or later
			at := e.Now()
			if rng.Intn(4) > 0 {
				at = at.Add(tick * Duration(1+rng.Intn(40)))
			}
			arm(rng.Intn(len(regs)), at)
		case r < 4:
			disarm(rng.Intn(len(regs)))
		case r < 5: // same-instant events, for registers armed at now to interleave with
			for k := rng.Intn(3); k >= 0; k-- {
				schedule(e.Now())
			}
		case r < 6: // a heap event
			schedule(e.Now().Add(tick * Duration(1+rng.Intn(16))))
		case regime == regimeSnapshot && r < 7: // a heap event with an argument
			scheduleArg(e.Now().Add(tick * Duration(1+rng.Intn(16))))
		default:
			step(op)
		}
		check(op)
	}

	// Drain both completely, with event callbacks no longer arming or
	// disarming registers.
	onFire = nil
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
}
