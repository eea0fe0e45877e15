package hafnium

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"khsim/internal/mem"
	"khsim/internal/mmu"
)

// frameMap is the per-frame grant index the run-keyed one replaced: one
// entry per frame of every active grant.
type frameMap map[mem.PA]*Grant

func (m frameMap) add(g *Grant) {
	for _, pa := range g.Pages {
		m[pa] = g
	}
}

func (m frameMap) drop(g *Grant) {
	for _, pa := range g.Pages {
		delete(m, pa)
	}
}

// checkIndex compares x with the per-frame map on every frame of
// [lo, hi), and requires its runs to be sorted, non-empty and disjoint.
func checkIndex(t *testing.T, x *grantIndex, want frameMap, lo, hi mem.PA) bool {
	t.Helper()
	for k, r := range x.runs {
		if r.base >= r.end || k > 0 && x.runs[k-1].end > r.base {
			t.Logf("index run %d [%#x,%#x) is empty or overlaps its predecessor", k, uint64(r.base), uint64(r.end))
			return false
		}
	}
	for pa := lo; pa < hi; pa += mem.PageSize {
		if got := x.lookup(pa); got != want[pa] {
			t.Logf("frame %#x: index holds grant %v, per-frame map %v", uint64(pa), got, want[pa])
			return false
		}
	}
	return true
}

// TestQuickGrantIndexMatchesPerFrame drives the run-keyed grant index
// and a per-frame map through the same random adds, drops and refills,
// and compares lookup on every frame after each step. A grant's frames
// come as ascending runs, scattered single frames or descending
// frames, so one grant can hold several runs and two runs can touch.
// A refill rebuilds the index from a random subset of the live grants.
func TestQuickGrantIndexMatchesPerFrame(t *testing.T) {
	const frames = 512
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var x grantIndex
		want := frameMap{}
		var live []*Grant
		free := func(pa mem.PA) bool { return pa < frames*mem.PageSize && want[pa] == nil }
		for step, id := 0, uint64(1); step < 200; step++ {
			switch op := rng.Intn(8); {
			case op < 4: // add a grant of free frames
				g := &Grant{ID: id}
				id++
				at := mem.PA(rng.Intn(frames)) * mem.PageSize
				n := 1 + rng.Intn(24)
				switch rng.Intn(3) {
				case 0: // one ascending run
					for i := 0; i < n && free(at); i++ {
						g.Pages = append(g.Pages, at)
						at += mem.PageSize
					}
				case 1: // scattered frames
					for i := 0; i < n; i++ {
						pa := mem.PA(rng.Intn(frames)) * mem.PageSize
						if free(pa) {
							g.Pages = append(g.Pages, pa)
							want[pa] = g // reserve it against a repeat in this grant
						}
					}
					want.drop(g)
				default: // descending frames
					for i := 0; i < n && free(at) && at > 0; i++ {
						g.Pages = append(g.Pages, at)
						at -= mem.PageSize
					}
				}
				if len(g.Pages) > 0 {
					x.add(g)
					want.add(g)
					live = append(live, g)
				}
			case op < 7: // drop a live grant
				if len(live) > 0 {
					k := rng.Intn(len(live))
					x.drop(live[k])
					want.drop(live[k])
					live = slices.Delete(live, k, k+1)
				}
			default: // refill from a subset of the live grants
				shares := map[uint64]*Grant{}
				live = slices.DeleteFunc(live, func(g *Grant) bool {
					if rng.Intn(3) == 0 {
						want.drop(g)
						return true
					}
					shares[g.ID] = g
					return false
				})
				x.refill(shares)
			}
			if !checkIndex(t, &x, want, 0, frames*mem.PageSize) {
				t.Logf("seed %d, step %d", seed, step)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickGrantIndexAcrossRestore runs random shares, lends, donates
// and reclaims between two VMs with node snapshots and restores among
// them, and after every step compares the hypervisor's grant index with
// a per-frame map kept beside it (and snapshotted with the node) on
// every frame the grants can reach in both VMs' RAM.
func TestQuickGrantIndexAcrossRestore(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h, a, b := shareSystem(t)
		baseA, _ := a.RAM()
		// The grants come from the first window pages of each VM's RAM.
		const window = 256 + 16
		var ramPA [2]mem.PA
		for i, vm := range []*VM{a, b} {
			base, _ := vm.RAM()
			pa, err := vm.TranslateIPA(base, mmu.PermR)
			if err != nil {
				t.Fatal(err)
			}
			ramPA[i] = pa
		}
		want := frameMap{}
		type snap struct {
			node any
			want frameMap
		}
		var snaps []snap
		for step := 0; step < 40; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				kind := ShareKind(rng.Intn(3))
				from, to, base := a, b, baseA
				if rng.Intn(4) == 0 {
					from, to = b, a
					base, _ = b.RAM()
				}
				ipa := base + uint64(rng.Intn(256))*mem.PageSize
				size := uint64(1+rng.Intn(16)) * mem.PageSize
				if _, id, err := h.ShareMemory(kind, from.ID(), to.ID(), ipa, size, mmu.PermRW); err == nil && kind != MemDonate {
					want.add(h.shares[id])
				}
			case op < 8:
				for _, g := range h.Grants(a.ID()) {
					if err := h.ReclaimMemory(g.From, g.ID); err != nil {
						t.Fatal(err)
					}
					want.drop(&g)
					break
				}
			case op < 9:
				snaps = append(snaps, snap{h.node.Snapshot(), maps.Clone(want)})
			default:
				if len(snaps) > 0 {
					s := snaps[rng.Intn(len(snaps))]
					h.node.Restore(s.node)
					want = maps.Clone(s.want)
				}
			}
			if !checkIndex(t, &h.granted, want, ramPA[0], ramPA[0]+window*mem.PageSize) ||
				!checkIndex(t, &h.granted, want, ramPA[1], ramPA[1]+window*mem.PageSize) {
				t.Logf("seed %d, step %d", seed, step)
				return false
			}
			if err := h.VerifyIsolation(); err != nil {
				t.Logf("seed %d, step %d: %v", seed, step, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
