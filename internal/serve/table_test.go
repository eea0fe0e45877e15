package serve

import (
	"testing"
	"testing/quick"

	"khsim/internal/sim"
)

// TestQuickTableAndRingMatchModels drives a jobTable and an idRing with
// random operation sequences and compares them with plain models after
// every operation. The ring's model is a slice pushed at either end and
// popped at the front, which covers wraparound and growth. The table's
// model is every job ever added: next must be the number added, get must
// return a job exactly from the oldest unfinished one on, with the
// fields it was given, and nil below it, whatever order jobs finish in.
func TestQuickTableAndRingMatchModels(t *testing.T) {
	f := func(ops []uint8) bool {
		var r idRing
		var rm []int
		var tb jobTable
		var all []Job
		for i, op := range ops {
			switch op % 5 {
			case 0:
				r.pushBack(i)
				rm = append(rm, i)
			case 1:
				r.pushFront(i)
				rm = append([]int{i}, rm...)
			case 2:
				if len(rm) > 0 {
					if r.front() != rm[0] {
						return false
					}
					r.popFront()
					rm = rm[1:]
				}
			case 3:
				j := Job{Arrive: sim.Time(i), Demand: sim.Duration(op), Env: -1}
				j.ID = tb.add(j)
				if j.ID != len(all) {
					return false
				}
				all = append(all, j)
			case 4:
				var open []int
				for _, j := range all {
					if j.DoneAt == 0 {
						open = append(open, j.ID)
					}
				}
				if len(open) == 0 {
					break
				}
				id := open[int(op/5)%len(open)]
				all[id].DoneAt = sim.Time(i + 1)
				tb.get(id).DoneAt = all[id].DoneAt
				tb.reclaim()
			}
			if r.len() != len(rm) || tb.next() != len(all) {
				return false
			}
			oldest := len(all)
			for _, j := range all {
				if j.DoneAt == 0 {
					oldest = j.ID
					break
				}
			}
			for _, j := range all {
				got := tb.get(j.ID)
				if (got == nil) != (j.ID < oldest) || (got != nil && *got != j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
