package main

import (
	"errors"
	"fmt"

	"khsim/internal/core"
	"khsim/internal/hafnium"
	"khsim/internal/kitten"
	"khsim/internal/mem"
	"khsim/internal/mmu"
	"khsim/internal/noise"
	"khsim/internal/sim"
)

// isolationManifest is the isolation stack: a primary, a job VM running a
// chunked selfish spin, and a producer and a consumer that trade memory.
const isolationManifest = `
[vm primary]
class = primary
vcpus = 4
memory_mb = 64

[vm job]
class = secondary
vcpus = 1
memory_mb = 64

[vm producer]
class = secondary
vcpus = 1
memory_mb = 64

[vm consumer]
class = secondary
vcpus = 1
memory_mb = 64
`

// isoStride is how far, in pages, each grant's offset slides from the
// previous one; successive epochs keep sliding through the producer's RAM.
const isoStride = 7

// isolation exercises the hafnium ownership state that paper builds, as
// lookups and restores rather than construction. The stack boots once and
// is snapshotted after a warm-up; one unit is one epoch: fork back to the
// snapshot, make ops share or lend grants of 1–16 pages at sliding
// offsets and reclaim each one, donate a page, try three grants that must
// be rejected, check isolation every 64 ops, and run 1 ms. The donate
// changes frame ownership, so every fork has to restore the owner map.
// Reclaimed grants stay in the hypervisor's grant table until the fork
// rewinds it, so the per-epoch fork caps that history and keeps every
// epoch the same amount of work.
type isolation struct {
	ops, every, ref int

	n               *core.SecureNode
	snap            sim.State
	prod, cons, job hafnium.VMID
	base, pages     uint64 // producer RAM: first IPA and size in pages
	events          uint64 // events epoch 0 fired after its fork
	grants, rejects int
	counts          stackCounts
}

func newIsolation(tiny bool) *isolation {
	w := &isolation{ops: 256, every: 64, ref: 4}
	if tiny {
		w.ops, w.ref = 64, 2
	}
	return w
}

func (w *isolation) refUnits() int { return w.ref }

// prepare builds the stack, warms it up and snapshots it.
func (w *isolation) prepare(r *runner) error {
	var err error
	if w.n, err = w.build(r, r.seeds.Seed(0)); err != nil {
		return err
	}
	r.setupSample()
	r.run(w.n.Machine.Engine, func() { w.n.Run(5 * sim.Millisecond) })
	w.snap = w.n.Machine.Snapshot()
	for _, v := range []struct {
		name string
		id   *hafnium.VMID
	}{{"producer", &w.prod}, {"consumer", &w.cons}, {"job", &w.job}} {
		vm, ok := w.n.Hyp.VMByName(v.name)
		if !ok {
			return fmt.Errorf("no VM %q", v.name)
		}
		*v.id = vm.ID()
		if v.id == &w.prod {
			base, size := vm.RAM()
			w.base, w.pages = base, size/mem.PageSize
		}
	}
	return nil
}

func (w *isolation) build(r *runner, seed uint64) (*core.SecureNode, error) {
	var n *core.SecureNode
	err := r.call("core.build", func() (err error) {
		n, err = core.NewSecureNode(core.Options{Seed: seed, Manifest: isolationManifest, Scheduler: core.SchedulerKitten})
		return err
	})
	if err != nil {
		return nil, err
	}
	err = r.call("core.attach", func() error {
		spin := noise.NewSelfish("job", 1000*sim.Second)
		spin.ChunkTime = sim.FromMicros(50)
		job := kitten.NewGuest(kitten.DefaultParams())
		job.Attach(0, spin)
		n.Machine.RegisterSnapshotter("proc."+spin.Name(), spin)
		if err := n.AttachGuest("job", job); err != nil {
			return err
		}
		for _, name := range []string{"producer", "consumer"} {
			if err := n.AttachGuest(name, kitten.NewGuest(kitten.DefaultParams())); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return n, r.call("core.boot", n.Boot)
}

func (w *isolation) unit(r *runner, i int, seed uint64) error {
	// The epoch itself builds nothing; a throwaway stack built in a probe,
	// kept out of the epoch's wall time, samples set-up time across the
	// whole run.
	err := r.call("probe", func() error {
		_, err := w.build(r, seed)
		return err
	})
	if err != nil {
		return err
	}
	h, m := w.n.Hyp, w.n.Machine
	ref := i < w.ref
	_ = r.call("machine.fork", func() error { m.Fork(w.snap); return nil }) // Fork cannot fail
	var c0 stackCounts
	if ref {
		c0 = countStack(m, h)
	}
	f0 := m.Engine.Fired()

	rng := sim.NewRNG(seed)
	slot := uint64(i) * uint64(w.ops+2)
	ipa := func(k uint64) uint64 {
		return w.base + (slot+k)*isoStride%(w.pages-16)*mem.PageSize
	}
	grant := func(kind hafnium.ShareKind, from, to hafnium.VMID, at, pages uint64) (toIPA, id uint64, err error) {
		err = r.call("hafnium.share", func() (err error) {
			toIPA, id, err = h.ShareMemory(kind, from, to, at, pages*mem.PageSize, mmu.PermRW)
			return err
		})
		return toIPA, id, err
	}
	reclaim := func(id uint64) error {
		return r.call("hafnium.reclaim", func() error { return h.ReclaimMemory(w.prod, id) })
	}
	grants, rejects := 0, 0
	reject := func(name string, err error) {
		if err == nil {
			r.check(name, errors.New("accepted, want rejected"))
			return
		}
		rejects++
		r.check(name, nil)
	}

	for op := 0; op < w.ops; op++ {
		kind := hafnium.MemShare
		if rng.Intn(2) == 1 {
			kind = hafnium.MemLend
		}
		_, id, err := grant(kind, w.prod, w.cons, ipa(uint64(op)), uint64(1+rng.Intn(16)))
		r.check("grant", err)
		if err == nil {
			grants++
			r.check("reclaim", reclaim(id))
		}
		if (op+1)%w.every == 0 {
			r.check("isolation holds", r.call("hafnium.verify", h.VerifyIsolation))
		}
	}
	donated := ipa(uint64(w.ops))
	_, _, err = grant(hafnium.MemDonate, w.prod, w.cons, donated, 1)
	r.check("donate", err)
	if err == nil {
		grants++
	}
	_, _, err = grant(hafnium.MemShare, w.prod, w.prod, w.base, 1)
	reject("self-grant", err)
	_, _, err = grant(hafnium.MemShare, w.prod, w.cons, donated, 1)
	reject("re-grant of donated memory", err)
	// The consumer may use a frame the producer shares with it but does
	// not own it, so it cannot grant it onward.
	shared, held, err := grant(hafnium.MemShare, w.prod, w.cons, ipa(uint64(w.ops+1)), 1)
	r.check("grant", err)
	if err == nil {
		grants++
		_, _, err = grant(hafnium.MemShare, w.cons, w.job, shared, 1)
		reject("grant of unowned memory", err)
		r.check("reclaim", reclaim(held))
	}

	r.run(m.Engine, func() { w.n.Run(sim.Millisecond) })
	fired := m.Engine.Fired() - f0
	if i == 0 {
		w.events = fired
	}
	var replay error
	if fired != w.events {
		replay = fmt.Errorf("fired %d events after the fork, epoch 0 fired %d", fired, w.events)
	}
	r.check("epoch replays", replay)
	if ref {
		c := countStack(m, h)
		c.add(c0, -1)
		w.counts.add(c, 1)
		w.grants += grants
		w.rejects += rejects
	}
	return nil
}

func (w *isolation) finish(r *runner) {
	w.counts.report(r)
	r.set("hafnium.grants", float64(w.grants))
	r.set("hafnium.rejects", float64(w.rejects))
}
