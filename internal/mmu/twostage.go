package mmu

import "fmt"

// TwoStage composes a stage-1 table (VA→IPA, owned by the guest OS) with a
// stage-2 table (IPA→PA, owned by the hypervisor). This is the translation
// regime a Hafnium secondary VM runs under, and the source of the nested
// walk costs the paper's RandomAccess experiment exposes.
type TwoStage struct {
	Stage1 *Table // guest-controlled
	Stage2 *Table // hypervisor-controlled
}

// FaultStage identifies which stage a translation fault occurred in.
type FaultStage int

// Fault stages. FaultNone means translation succeeded.
const (
	FaultNone FaultStage = iota
	FaultStage1
	FaultStage2
	FaultPermission // stage-2 permission violation: a hypervisor trap
)

// String names the stage a translation faulted at ("none", "stage1",
// "stage2" or "s2-permission").
func (f FaultStage) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultStage1:
		return "stage1"
	case FaultStage2:
		return "stage2"
	case FaultPermission:
		return "s2-permission"
	default:
		return fmt.Sprintf("FaultStage(%d)", int(f))
	}
}

// Result describes a completed two-stage translation attempt.
type Result struct {
	PA       uint64
	Perms    Perms // effective permissions: stage-1 ∧ stage-2
	Accesses int   // descriptor fetches performed by the walker
	Fault    FaultStage
}

// Translate performs the full nested walk for va, requiring want
// permissions at both stages.
//
// Access counting follows the ARMv8 nested-walk shape: every stage-1
// descriptor fetch is itself an IPA that stage 2 must translate, so each
// of the four stage-1 levels costs (1 + stage-2 walk) accesses, and the
// final output IPA costs one more stage-2 walk. With both stages 4 levels
// deep that is 4×(1+4) + 4 = 24 descriptor fetches — the "two sets of page
// tables" overhead the paper's §V-b describes.
func (t *TwoStage) Translate(va uint64, want Perms) Result {
	res := Result{}
	// Stage-1 walk: each level's descriptor fetch goes through stage 2.
	s1Levels := t.Stage1.WalkAccesses(va)
	for i := 0; i < s1Levels; i++ {
		res.Accesses++                     // the stage-1 descriptor fetch itself
		res.Accesses += t.stage2WalkCost() // translating that fetch's IPA
	}
	ipa, p1, _, ok := t.Stage1.Translate(va)
	if !ok {
		res.Fault = FaultStage1
		return res
	}
	// Final stage-2 walk of the output IPA.
	res.Accesses += t.Stage2.WalkAccesses(ipa)
	pa, p2, _, ok := t.Stage2.Translate(ipa)
	if !ok {
		res.Fault = FaultStage2
		return res
	}
	res.PA = pa
	res.Perms = p1 & p2
	if !p1.Allows(want) {
		res.Fault = FaultStage1 // guest-level permission fault, handled in-guest
		return res
	}
	if !p2.Allows(want) {
		res.Fault = FaultPermission
		return res
	}
	return res
}

// stage2WalkCost reports the typical stage-2 walk depth. For cost purposes
// we use the table's full depth when it has any mappings (block mappings
// shorten real walks; Translate's per-IPA accounting above uses the exact
// per-address depth for the final walk, and the table depth here for
// descriptor fetches, which in real hardware hit the walk cache — this is
// the simulator's one deliberate simplification, noted in DESIGN.md).
func (t *TwoStage) stage2WalkCost() int {
	if t.Stage2.MappedBytes() == 0 {
		return 1
	}
	return Levels
}

// NestedWalkAccesses reports the worst-case descriptor fetch count for
// this regime: s1×(1+s2) + s2 with both stages at full depth.
func NestedWalkAccesses(s1Levels, s2Levels int) int {
	return s1Levels*(1+s2Levels) + s2Levels
}
