package tlb

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// TestRecycledArraysBehaveAsFresh drives a TLB built on a released
// TLB's arrays and a fresh one through the same random probes, fills,
// invalidations and flushes, and requires identical results, cached
// entries, counters and charged time at every step: the generation
// bump at release leaves nothing of the old contents visible, and
// victim choice does not depend on them.
func TestRecycledArraysBehaveAsFresh(t *testing.T) {
	params := sim.DefaultParams()
	m := sim.NewMachine(&params, 3, 1)
	old := New(m.CPU(0), &params, DefaultConfig())
	rng := sim.NewRNG(9)
	drive := func(tl *TLB, rng *sim.RNG) (Translation, bool) {
		asid := 1 + int(rng.Uint64n(3))
		va := mem.VirtAddr(rng.Uint64n(4096)) << 12
		switch op := rng.Uint64n(20); {
		case op == 0:
			tl.FlushAll()
		case op == 1:
			tl.InvalidateVA(asid, va)
		case op < 10:
			size := PageSize(rng.Uint64n(2))
			tl.Insert(asid, va, Translation{Frame: mem.Frame(rng.Uint64n(1 << 20)), Size: size})
		default:
			return tl.Lookup(asid, va)
		}
		return Translation{}, false
	}
	for i := 0; i < 20000; i++ {
		drive(old, rng)
	}
	var s Spares
	old.Release(&s)
	if len(s.arrays) != 3 {
		t.Fatalf("released %d arrays, want 3", len(s.arrays))
	}
	recycled := NewFrom(m.CPU(1), &params, DefaultConfig(), &s)
	fresh := New(m.CPU(2), &params, DefaultConfig())
	if len(s.arrays) != 0 {
		t.Fatalf("%d arrays left unadopted", len(s.arrays))
	}
	if n := recycled.ValidEntries(); n != 0 {
		t.Fatalf("recycled TLB starts with %d valid entries", n)
	}
	ra, rb := sim.NewRNG(5), sim.NewRNG(5)
	for i := 0; i < 50000; i++ {
		gotTr, gotHit := drive(recycled, ra)
		wantTr, wantHit := drive(fresh, rb)
		if gotTr != wantTr || gotHit != wantHit {
			t.Fatalf("step %d: recycled lookup (%v, %v), fresh (%v, %v)", i, gotTr, gotHit, wantTr, wantHit)
		}
		if recycled.cpu.Now() != fresh.cpu.Now() {
			t.Fatalf("step %d: charged %v, fresh %v", i, recycled.cpu.Now(), fresh.cpu.Now())
		}
	}
	if a, b := recycled.ValidEntries(), fresh.ValidEntries(); a != b {
		t.Fatalf("%d valid entries, fresh has %d", a, b)
	}
	for _, name := range []string{"l1_hits", "l2_hits", "misses", "evictions", "flushes"} {
		if a, b := recycled.Stats().Counter(name).Value(), fresh.Stats().Counter(name).Value(); a != b {
			t.Errorf("%s = %d, fresh has %d", name, a, b)
		}
	}
	if !mustPanic(func() { old.Lookup(1, 0) }) {
		t.Fatal("a released TLB still answered a lookup")
	}
}

func mustPanic(fn func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fn()
	return false
}
