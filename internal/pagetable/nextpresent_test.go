package pagetable

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// scanPresent is NextPresent's oracle: probe every page of [va, end)
// with PageSize.
func scanPresent(tbl *Table, va, end mem.VirtAddr) mem.VirtAddr {
	for ; va < end; va += mem.FrameSize {
		if tbl.PageSize(va) != 0 {
			return va
		}
	}
	return end
}

// TestNextPresentMatchesPageScan fills the top 3 GiB of 4- and 5-level
// tables with a random sparse mix of 1 GiB, 2 MiB and 4 KiB leaves and
// checks NextPresent against a per-page PageSize scan, over random
// ranges and over ranges that end at MaxVirt.
func TestNextPresentMatchesPageScan(t *testing.T) {
	const (
		gib = mem.VirtAddr(1 << 30)
		mib = mem.VirtAddr(1 << 20)
	)
	for _, levels := range []int{Levels4, Levels5} {
		for seed := uint64(1); seed <= 3; seed++ {
			tbl, _, cpu := newTable(t, levels)
			rng := sim.NewRNG(seed)
			top := tbl.MaxVirt()
			lo := top - 3*gib
			// One 1 GiB leaf in a random slot; 2 MiB and 4 KiB leaves
			// elsewhere (Map rejects overlaps, which the fill skips).
			hugeSlot := lo + mem.VirtAddr(rng.Intn(3))*gib
			if err := tbl.Map1G(cpu, hugeSlot, 0, FlagRead); err != nil {
				t.Fatal(err)
			}
			inHuge := func(va mem.VirtAddr) bool { return va >= hugeSlot && va < hugeSlot+gib }
			for i := 0; i < 24; i++ {
				va := lo + mem.VirtAddr(rng.Intn(3*512))*2*mib
				if !inHuge(va) && tbl.PageSize(va) == 0 {
					if err := tbl.Map2M(cpu, va, 512, FlagRead); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := 0; i < 300; i++ {
				va := lo + mem.VirtAddr(rng.Intn(3*1<<18))*mem.FrameSize
				if inHuge(va) || tbl.PageSize(va) != 0 || tbl.PageSize(va&^(2*mib-1)) != 0 {
					continue
				}
				if err := tbl.Map(cpu, va, 7, FlagRead); err != nil {
					t.Fatal(err)
				}
			}
			randVA := func() mem.VirtAddr {
				return lo + mem.VirtAddr(rng.Intn(3*1<<18))*mem.FrameSize
			}
			check := func(va, end mem.VirtAddr) {
				t.Helper()
				if got, want := tbl.NextPresent(va, end), scanPresent(tbl, va, end); got != want {
					t.Fatalf("levels=%d seed=%d: NextPresent(%#x, %#x) = %#x, want %#x",
						levels, seed, uint64(va), uint64(end), uint64(got), uint64(want))
				}
			}
			for i := 0; i < 200; i++ {
				va := randVA()
				end := va + mem.VirtAddr(1+rng.Intn(1<<16))*mem.FrameSize
				if end > top {
					end = top
				}
				check(va, end)
				check(va, top)
			}
			// Ranges that start below the window, past the last
			// mapping, at MaxVirt, or are empty.
			check(lo-4*mib, lo+4*mib)
			check(top-mem.FrameSize, top)
			check(top, top)
			check(lo, lo)
		}
	}
}
