package main

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/workload"
)

var sparseRead = spec{
	name: "sparse-read",
	why: "The same translation layers used for reads instead of writes: a long seeded stream of " +
		"1-byte reads over a resident working set several times the page-TLB reach that still " +
		"fits in the range TLB. Loads TLB probe, page walk, range-TLB lookup, memfs read and " +
		"usermode bounds checks; there is no map, unmap or fault, so buddy and vm metadata do " +
		"nothing and a map-path optimisation should show no change here.",
	setup: setupSparseRead,
	canon: 1,
}

// Sparse-read sizing: srObjects objects of srPages pages each (64 MiB,
// about ten times the 1536-entry L2 TLB's reach, in 16 ranges — half
// the range TLB), one page in srWriteEvery written at set-up, and
// srReads reads per configuration per round: three quarters from the
// hot/cold pattern, the rest uniform.
const (
	srObjects    = 16
	srPages      = 1024
	srWriteEvery = 8
	srReads      = 100000
)

type sparseReadInst struct {
	pages   uint64
	want    []byte   // expected byte 0 of every page, object-major
	reads   []uint32 // global page index of each read
	targets []target
}

func setupSparseRead(seed uint64, tiny bool, tr *tracer) (instance, error) {
	objects, pages, reads := srObjects, uint64(srPages), srReads
	if tiny {
		objects, pages, reads = 4, 64, 2000
	}
	total := uint64(objects) * pages
	// The stream's length is seeded too (up to 1/64 longer), so no
	// configuration's simulated time is the same for every seed.
	reads += int(sim.NewRNG(seed).Uint64n(uint64(reads/64) + 1))
	tr.begin(0, cWorkloadGen)
	w, err := genSparseRead(seed, pages, total, reads)
	tr.end(0)
	if err != nil {
		return nil, err
	}
	return w.build(seed, objects, tr)
}

// genSparseRead draws the read stream and the bytes set-up writes.
func genSparseRead(seed, pages, total uint64, reads int) (*sparseReadInst, error) {
	hot, err := workload.Touches(workload.HotCold, total, reads, 0, seed)
	if err != nil {
		return nil, err
	}
	uni, err := workload.Touches(workload.Random, total, reads, 0, seed^0x5eed)
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(seed ^ 0xc01d)
	w := &sparseReadInst{pages: pages, want: make([]byte, total), reads: make([]uint32, reads)}
	for i := range w.reads {
		src := hot
		if rng.Uint64n(4) == 0 {
			src = uni
		}
		w.reads[i] = uint32(src[i])
	}
	for g := range w.want {
		if rng.Uint64n(srWriteEvery) == 0 {
			w.want[g] = byte(1 + rng.Uint64n(255))
		}
	}
	return w, nil
}

// build maps the resident set in every configuration and writes the
// chosen pages; none of it is measured.
func (w *sparseReadInst) build(seed uint64, objects int, tr *tracer) (instance, error) {
	ts, err := newTargets(seed, objects, true)
	if err != nil {
		return nil, err
	}
	r := &run{tr: tr}
	for ci, t := range ts {
		for i := 0; i < objects; i++ {
			if err := t.mapObj(r, i, w.pages, true); err != nil {
				return nil, fmt.Errorf("%s: map: %w", configs[ci], err)
			}
			for p := uint64(0); p < w.pages; p++ {
				if v := w.want[uint64(i)*w.pages+p]; v != 0 {
					if err := t.write(r, i, p, v); err != nil {
						return nil, fmt.Errorf("%s: write: %w", configs[ci], err)
					}
				}
			}
		}
	}
	w.targets = ts
	return w, nil
}

func (w *sparseReadInst) round(r *run) error {
	for ci, t := range w.targets {
		m := t.machine()
		for _, g := range w.reads {
			i, p := int(uint64(g)/w.pages), uint64(g)%w.pages
			t0 := m.Time()
			b, err := t.read(r, i, p)
			r.lat(0, m.Time()-t0)
			if r.done(err) != nil {
				return fmt.Errorf("%s: %w", configs[ci], err)
			}
			if b != w.want[g] {
				r.fail(1, fmt.Errorf("%s: object %d page %d reads %#x, want %#x", configs[ci], i, p, b, w.want[g]))
			}
		}
	}
	return nil
}

func (w *sparseReadInst) simNanos() map[string]int64 { return targetsSimNanos(w.targets) }

func (w *sparseReadInst) counters(c map[string]uint64) {
	for _, t := range w.targets {
		t.counters(c)
	}
}

func (w *sparseReadInst) state(d *digest) { targetsState(w.targets, d) }

func (w *sparseReadInst) machines() []*sim.Machine { return targetMachines(w.targets) }
