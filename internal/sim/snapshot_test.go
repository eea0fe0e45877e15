package sim

import (
	"fmt"
	"testing"
)

// snapWorkload is a self-scheduling stochastic component: every firing
// draws from the engine RNG, logs itself, and schedules (or cancels)
// follow-up work. Its mutable state is explicit so the test can snapshot
// it alongside the engine, exactly as real components do.
type snapWorkload struct {
	eng     *Engine
	log     []string
	pending []Event // handles held across events (revalidation test)
	n       int
}

type snapWorkloadState struct {
	logLen  int
	pending []Event
	n       int
}

func (w *snapWorkload) Snapshot() State {
	p := make([]Event, len(w.pending))
	copy(p, w.pending)
	return &snapWorkloadState{logLen: len(w.log), pending: p, n: w.n}
}

func (w *snapWorkload) Restore(st State) {
	s := st.(*snapWorkloadState)
	w.log = w.log[:s.logLen]
	w.pending = w.pending[:0]
	w.pending = append(w.pending, s.pending...)
	w.n = s.n
}

func (w *snapWorkload) step() {
	e := w.eng
	w.n++
	draw := e.RNG().Uint64()
	w.log = append(w.log, fmt.Sprintf("%d@%d:%x", w.n, e.Now(), draw&0xffff))
	// Mix of same-instant, near and far events, plus occasional cancels
	// of held handles to exercise the lane, heap and tombstones.
	switch draw % 5 {
	case 0:
		w.pending = append(w.pending, e.AfterNamed(Duration(1+draw%977), "w.far", w.step))
	case 1:
		e.ScheduleNamed(e.Now(), "w.now", w.step)
	case 2:
		w.pending = append(w.pending, e.AfterNamed(Duration(1+draw%97), "w.near", w.step))
	case 3:
		if len(w.pending) > 0 {
			e.Cancel(w.pending[0])
			w.pending = w.pending[1:]
		}
		e.AfterNamed(Duration(1+draw%31), "w.after-cancel", w.step)
	default:
		e.AfterNamed(Duration(1+draw%13), "w.tick", w.step)
	}
	// Keep the run alive.
	if w.n%7 == 0 {
		e.AfterNamed(Duration(1+draw%211), "w.refill", w.step)
	}
}

// TestEngineSnapshotRestoreBitIdentical drives a stochastic workload,
// snapshots mid-run, and checks that the continuation after Restore is
// bit-identical (same firing log, same counters) to the uninterrupted
// run — restored any number of times. The workload is a supercritical
// branching process (stale-handle cancels are no-ops, so each firing
// schedules slightly more than one successor on average); the horizon
// stops at 7 000 (~40k events) before the population explodes.
func TestEngineSnapshotRestoreBitIdentical(t *testing.T) {
	eng := NewEngine(42)
	w := &snapWorkload{eng: eng}
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

// TestEngineSnapshotHandleRevalidation checks the handle contract: an
// Event captured in snapshotted state is cancellable again after
// Restore, and a handle minted after the snapshot goes stale.
func TestEngineSnapshotHandleRevalidation(t *testing.T) {
	eng := NewEngine(7)
	fired := 0
	pre := eng.AfterNamed(100, "pre", func() { fired++ })
	snap := eng.Snapshot()

	post := eng.AfterNamed(50, "post", func() { fired += 100 })
	eng.Run(60) // post fires on the abandoned timeline
	if fired != 100 {
		t.Fatalf("post-snapshot event did not fire, fired=%d", fired)
	}

	fired = 0
	eng.Restore(snap)
	if post.Pending() {
		t.Fatalf("post-snapshot handle still pending after restore")
	}
	if !pre.Pending() {
		t.Fatalf("pre-snapshot handle not revalidated by restore")
	}
	eng.Cancel(pre)
	eng.Run(200)
	if fired != 0 {
		t.Fatalf("cancelled pre-snapshot event fired anyway, fired=%d", fired)
	}
	if eng.Pending() != 0 {
		t.Fatalf("queue not drained: %d pending", eng.Pending())
	}

	// Restore once more: pre must be live again and fire this time.
	eng.Restore(snap)
	eng.Run(200)
	if fired != 1 {
		t.Fatalf("pre event did not fire on the second restore, fired=%d", fired)
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
