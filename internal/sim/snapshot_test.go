package sim

import (
	"fmt"
	"testing"
)

// snapWorkload is a self-scheduling stochastic component: every firing
// draws from the engine RNG, logs itself, and schedules follow-up work or
// re-arms and disarms one of its registers. Its mutable state is explicit
// so the test can snapshot it alongside the engine, exactly as real
// components do; the registers' deadlines are engine state.
type snapWorkload struct {
	eng  *Engine
	log  []string
	regs []*Register
	n    int
}

type snapWorkloadState struct {
	logLen int
	n      int
}

func newSnapWorkload(eng *Engine) *snapWorkload {
	w := &snapWorkload{eng: eng}
	for i := 0; i < 4; i++ {
		w.regs = append(w.regs, eng.NewRegister("w.reg", w.step))
	}
	return w
}

func (w *snapWorkload) Snapshot() State {
	return &snapWorkloadState{logLen: len(w.log), n: w.n}
}

func (w *snapWorkload) Restore(st State) {
	s := st.(*snapWorkloadState)
	w.log = w.log[:s.logLen]
	w.n = s.n
}

func (w *snapWorkload) step() {
	e := w.eng
	w.n++
	draw := e.RNG().Uint64()
	w.log = append(w.log, fmt.Sprintf("%d@%d:%x", w.n, e.Now(), draw&0xffff))
	// Mix of same-instant, near and far events, plus register re-arms
	// (earlier or later than their pending firing) and disarms, to
	// exercise scheduled events and registers in the one heap.
	r := w.regs[(draw>>16)%uint64(len(w.regs))]
	switch draw % 5 {
	case 0:
		r.Arm(e.Now().Add(Duration(1 + draw%977)))
	case 1:
		e.ScheduleNamed(e.Now(), "w.now", w.step)
	case 2:
		r.Arm(e.Now().Add(Duration(1 + draw%97)))
	case 3:
		r.Disarm()
		e.AfterNamed(Duration(1+draw%31), "w.after-disarm", w.step)
	default:
		e.AfterNamed(Duration(1+draw%13), "w.tick", w.step)
	}
	// Keep the run alive without letting it explode: top the queue up
	// while it holds fewer than 200 events.
	if e.Pending() < 200 {
		e.AfterNamed(Duration(1+draw%211), "w.refill", w.step)
	}
}

// TestEngineSnapshotRestoreBitIdentical drives a stochastic workload,
// snapshots mid-run, and checks that the continuation after Restore is
// bit-identical (same firing log, same counters) to the uninterrupted
// run — restored any number of times.
func TestEngineSnapshotRestoreBitIdentical(t *testing.T) {
	eng := NewEngine(42)
	w := newSnapWorkload(eng)
	for i := 0; i < 4; i++ {
		eng.AfterNamed(Duration(i+1), "w.seed", w.step)
	}
	eng.Run(5_000)

	engSnap := eng.Snapshot()
	wSnap := w.Snapshot()
	cut := len(w.log)
	firedAtSnap := eng.Fired()

	eng.Run(7_000)
	tailA := append([]string(nil), w.log[cut:]...)
	firedA, seqA, nowA := eng.Fired(), eng.seq, eng.Now()
	if len(tailA) < 1000 {
		t.Fatalf("only %d events after the snapshot; the workload died out", len(tailA))
	}

	for trial := 0; trial < 3; trial++ {
		eng.Restore(engSnap)
		w.Restore(wSnap)
		if eng.Fired() != firedAtSnap {
			t.Fatalf("trial %d: fired %d after restore, want %d", trial, eng.Fired(), firedAtSnap)
		}
		eng.Run(7_000)
		tailB := w.log[cut:]
		if len(tailA) != len(tailB) {
			t.Fatalf("trial %d: tail lengths differ: %d vs %d", trial, len(tailA), len(tailB))
		}
		for i := range tailA {
			if tailA[i] != tailB[i] {
				t.Fatalf("trial %d: log diverges at %d: %q vs %q", trial, i, tailA[i], tailB[i])
			}
		}
		if eng.Fired() != firedA || eng.seq != seqA || eng.Now() != nowA {
			t.Fatalf("trial %d: counters diverge: fired=%d/%d seq=%d/%d now=%d/%d",
				trial, eng.Fired(), firedA, eng.seq, seqA, eng.Now(), nowA)
		}
	}
}

// TestEngineSnapshotHandleRevalidation checks the register contract
// across Restore: a register armed in the snapshot is armed again for
// the same firing, and one armed after the snapshot — here created after
// it, too — comes back disarmed.
func TestEngineSnapshotHandleRevalidation(t *testing.T) {
	eng := NewEngine(7)
	fired := 0
	pre := eng.NewRegister("pre", func() { fired++ })
	pre.Arm(100)
	snap := eng.Snapshot()

	post := eng.NewRegister("post", func() { fired += 100 })
	post.Arm(50)
	pre.Arm(300) // moved on the abandoned timeline
	eng.Run(60)  // post fires on the abandoned timeline
	if fired != 100 {
		t.Fatalf("post-snapshot register did not fire, fired=%d", fired)
	}
	post.Arm(150)

	fired = 0
	eng.Restore(snap)
	if post.Armed() {
		t.Fatalf("post-snapshot register still armed after restore")
	}
	if !pre.Armed() || pre.When() != 100 {
		t.Fatalf("pre-snapshot register armed=%v for %v after restore, want true for 100", pre.Armed(), pre.When())
	}
	pre.Disarm()
	eng.Run(200)
	if fired != 0 {
		t.Fatalf("disarmed pre-snapshot register fired anyway, fired=%d", fired)
	}
	if eng.Pending() != 0 {
		t.Fatalf("queue not drained: %d pending", eng.Pending())
	}

	// Restore once more: pre must be armed again and fire this time.
	eng.Restore(snap)
	eng.Run(200)
	if fired != 1 {
		t.Fatalf("pre register did not fire on the second restore, fired=%d", fired)
	}
}

// TestTraceSnapshotRestore checks trace truncation and seq rewind.
func TestTraceSnapshotRestore(t *testing.T) {
	tr := NewTrace()
	tr.Add(Record{Kind: "a"})
	tr.Add(Record{Kind: "b"})
	snap := tr.Snapshot()
	tr.Add(Record{Kind: "c"})
	tr.Restore(snap)
	if tr.Len() != 2 {
		t.Fatalf("len=%d after restore, want 2", tr.Len())
	}
	tr.Add(Record{Kind: "c2"})
	recs := tr.Records()
	if recs[2].Kind != "c2" || recs[2].Seq != 2 {
		t.Fatalf("post-restore record %+v, want seq 2", recs[2])
	}
}
