package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sim"
	"repro/internal/workload"
)

var mapPopulate = spec{
	name: "map-populate",
	why: "The paper's headline operation: map an object, write some of its pages, unmap it. " +
		"The experiments that do this (fig9, scale, o1, metadata) take most of the serial suite, " +
		"and their host CPU goes to vm page installation, buddy allocation and GC. " +
		"Loads vm, buddy, pagetable writes, memfs create/write/remove, core alloc/unmap and " +
		"usermode alloc/free; extent configurations do O(1) work per object, and the TLB hit " +
		"path and the sync gate (one CPU) are almost idle.",
	setup: setupMapPopulate,
	canon: 1,
}

// Map-populate sizing. Object sizes are log-uniform from 4 KiB to
// 256 MiB, stratified: each round holds mpPerOctave objects from each
// of the 16 power-of-two size octaves, one from each equal slice of the
// octave (in log space), half of them populated in the baseline. The
// stream visits the slices in seeded order, each as one pass over the
// octaves in bit-reversed order, which keeps large objects apart; so
// neither the work a round does nor its peak live set (at most mpLive
// objects, which keeps the baseline's 2 GiB pool from running out)
// depends much on the seed.
const (
	mpOctaves   = 16
	mpPerOctave = 4
	mpLive      = 4
	mpMaxWrites = 64
)

// mpObject is one object of the round's stream.
type mpObject struct {
	pages    uint64
	populate bool     // baseline: MAP_POPULATE, else demand faults
	writes   []uint64 // distinct pages written once, ascending
}

type mapPopulateInst struct {
	objs    []mpObject
	all     []int // the round: every object, in stream order
	targets []target
}

// bitReverse reverses the bits of i < n, for n a power of two.
func bitReverse(i, n int) int {
	r := 0
	for b := 1; b < n; b <<= 1 {
		r <<= 1
		if i&b != 0 {
			r |= 1
		}
	}
	return r
}

// mpValue is the byte the benchmark writes to page p of object i.
func mpValue(i int, p uint64) byte { return byte(1 + (uint64(i)*31+p)%251) }

func setupMapPopulate(seed uint64, tiny bool, tr *tracer) (instance, error) {
	octaves, perOctave := mpOctaves, mpPerOctave
	if tiny {
		octaves, perOctave = 8, 2
	}
	tr.begin(0, cWorkloadGen)
	rng := sim.NewRNG(seed)
	n := octaves * perOctave
	slices := rng.Perm(perOctave)
	objs := make([]mpObject, n)
	for i := range objs {
		slice := slices[i/octaves]
		oct := bitReverse(i%octaves, octaves)
		x := float64(oct) + (float64(slice)+rng.Float64())/float64(perOctave)
		pages := uint64(math.Exp2(x))
		// Write one page in 64 (at least one, at most mpMaxWrites), at
		// seeded positions.
		nw := pages / 64
		if nw < 1 {
			nw = 1
		}
		if nw > mpMaxWrites {
			nw = mpMaxWrites
		}
		idx, err := workload.Touches(workload.Random, pages, int(nw), 0, rng.Uint64())
		if err != nil {
			tr.end(0)
			return nil, err
		}
		sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
		w := idx[:0]
		for j, p := range idx {
			if j == 0 || p != idx[j-1] {
				w = append(w, p)
			}
		}
		objs[i] = mpObject{pages: pages, populate: slice%2 == 0, writes: w}
	}
	tr.end(0)
	ts, err := newTargets(seed, n, false)
	if err != nil {
		return nil, err
	}
	w := &mapPopulateInst{objs: objs, targets: ts}
	for i := range objs {
		w.all = append(w.all, i)
	}
	// Two unmeasured rounds bring every configuration to steady state:
	// SharedPT's pre-created master chunks are built on first use of
	// their physical range (and then shared by every later mapping),
	// which the second round can still reach, and host-side metadata
	// grows to the round's high-water mark.
	for i := 0; i < 2; i++ {
		if err := w.round(&run{tr: tr}); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return w, nil
}

func (w *mapPopulateInst) round(r *run) error {
	for ci, t := range w.targets {
		if err := w.stream(r, ci, t, w.all); err != nil {
			return fmt.Errorf("%s: %w", configs[ci], err)
		}
	}
	return nil
}

// stream drives objects through one configuration: map, write the
// chosen pages, read the last one back, and unmap the oldest object
// once more than mpLive are live.
func (w *mapPopulateInst) stream(r *run, ci int, t target, objs []int) error {
	m := t.machine()
	live := make([]int, 0, mpLive+1)
	timed := func(err error, t0 sim.Time) error {
		r.lat(0, m.Time()-t0)
		return r.done(err)
	}
	for _, i := range objs {
		o := &w.objs[i]
		t0 := m.Time()
		if err := timed(t.mapObj(r, i, o.pages, o.populate), t0); err != nil {
			return err
		}
		live = append(live, i)
		for _, p := range o.writes {
			t0 := m.Time()
			if err := timed(t.write(r, i, p, mpValue(i, p)), t0); err != nil {
				return err
			}
		}
		last := o.writes[len(o.writes)-1]
		t0 = m.Time()
		b, err := t.read(r, i, last)
		if err := timed(err, t0); err != nil {
			return err
		}
		if want := mpValue(i, last); b != want {
			r.fail(1, fmt.Errorf("object %d page %d reads %#x, wrote %#x", i, last, b, want))
		}
		if len(live) > mpLive {
			t0 := m.Time()
			if err := timed(t.unmap(r, live[0]), t0); err != nil {
				return err
			}
			live = live[1:]
		}
	}
	for _, i := range live {
		t0 := m.Time()
		if err := timed(t.unmap(r, i), t0); err != nil {
			return err
		}
	}
	return nil
}

func (w *mapPopulateInst) simNanos() map[string]int64 { return targetsSimNanos(w.targets) }

func (w *mapPopulateInst) counters(c map[string]uint64) {
	for _, t := range w.targets {
		t.counters(c)
	}
}

func (w *mapPopulateInst) state(d *digest) { targetsState(w.targets, d) }

func (w *mapPopulateInst) machines() []*sim.Machine { return targetMachines(w.targets) }
