package check

import (
	"fmt"
	"testing"

	"repro/internal/mem"
)

// replayed builds cfg on p's parts (nil: fresh) and replays trace
// through it.
func replayed(t *testing.T, cfg string, cpus int, seed uint64, tiered bool, p *parts, trace []Op) *world {
	t.Helper()
	w, err := newWorld(cfg, cpus, seed, tiered, p)
	if err != nil {
		t.Fatal(err)
	}
	if p != nil {
		// What the world adopted must be clean before it is used.
		if err := w.memory().SpareScrubbed(); err != nil {
			t.Fatalf("adopted parts: %v", err)
		}
		if err := w.check(); err != nil {
			t.Fatalf("adopted parts: %v", err)
		}
	}
	if f := replaySpan(w, newModel(cpus), trace, 0, len(trace)); f != nil {
		t.Fatal(f)
	}
	return w
}

// TestRecycledWorldsMatchFresh builds every configuration, at 1 and 2
// CPUs, with and without a tier engine, once fresh and once on the
// parts a predecessor released after running an unrelated trace, and
// replays one trace through both. The recycled world must capture
// exactly as the fresh one — machine state and memory checksum — and
// its spare pools (frame arrays, store leaves and mid nodes,
// page-table nodes) must be scrubbed before and after the replay.
func TestRecycledWorldsMatchFresh(t *testing.T) {
	ops := 400
	if testing.Short() {
		ops = 150
	}
	for _, cfg := range AllConfigs {
		for _, cpus := range []int{1, 2} {
			for _, tiered := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/cpus%d/tier=%v", cfg, cpus, tiered), func(t *testing.T) {
					p := &parts{}
					pred := replayed(t, cfg, cpus, 7, tiered, nil, generate(7, ops, cpus))
					if err := pred.release(p); err != nil {
						t.Fatal(err)
					}
					trace := generate(1, ops, cpus)
					fresh := replayed(t, cfg, cpus, 1, tiered, nil, trace)
					recycled := replayed(t, cfg, cpus, 1, tiered, p, trace)
					wantSt, wantSum := capture(fresh)
					gotSt, gotSum := capture(recycled)
					if d := gotSt.Diff(wantSt); d != "" {
						t.Errorf("machine state differs from a fresh world's: %s", d)
					}
					if gotSum != wantSum {
						t.Errorf("memory checksum %#x, fresh world has %#x", gotSum, wantSum)
					}
					if err := recycled.memory().SpareScrubbed(); err != nil {
						t.Error(err)
					}
					if err := recycled.check(); err != nil {
						t.Errorf("invariants (page-table pool scrub included): %v", err)
					}
				})
			}
		}
	}
}

// mustPanic reports whether fn panics.
func mustPanic(fn func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fn()
	return false
}

// TestReleasedWorldCannotReadRecycledFrames releases a world whose
// memory held known bytes, lets the next world write its own bytes
// into the recycled frame arrays, and requires every read through the
// released world — its physical memory and its configuration's
// access path — to panic rather than return a byte.
func TestReleasedWorldCannotReadRecycledFrames(t *testing.T) {
	for _, cfg := range AllConfigs {
		t.Run(cfg, func(t *testing.T) {
			trace := generate(3, 200, 2)
			old := replayed(t, cfg, 2, 3, false, nil, trace)
			oldMem := old.memory()
			frames := oldMem.MaterializedFrameList()
			if len(frames) == 0 {
				t.Fatal("the trace materialized no frame")
			}
			var obj, proc int = -1, -1
			for id, o := range old.objs {
				for pr := range o.procs {
					obj, proc = id, pr
				}
			}
			p := &parts{}
			if err := old.release(p); err != nil {
				t.Fatal(err)
			}
			next := replayed(t, cfg, 2, 4, false, p, generate(4, 200, 2))
			for _, f := range frames {
				if !mustPanic(func() { oldMem.ReadAt(f.Addr(), make([]byte, 1)) }) {
					t.Fatalf("released memory read frame %d", f)
				}
			}
			if !mustPanic(func() { oldMem.ReadAt(mem.PhysAddr(0), make([]byte, 2*mem.FrameSize)) }) {
				t.Fatal("released memory read a range")
			}
			if obj >= 0 && !mustPanic(func() { _, _ = old.readback(obj, proc, 0) }) {
				t.Fatalf("released %s world read object %d", cfg, obj)
			}
			if err := next.check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
