package pagetable

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// scanPresent is Next's oracle: probe every page of [va, end) with
// PageSize.
func scanPresent(tbl *Table, va, end mem.VirtAddr) mem.VirtAddr {
	for ; va < end; va += mem.FrameSize {
		if tbl.PageSize(va) != 0 {
			return va
		}
	}
	return end
}

type unmapped struct {
	va    mem.VirtAddr
	frame mem.Frame
	pages uint64
}

// scanUnmap is UnmapRange's oracle: probe every page of [va, end) with
// PageSize and unmap each present one.
func scanUnmap(tbl *Table, cpu *sim.CPU, va, end mem.VirtAddr) ([]unmapped, error) {
	var got []unmapped
	for va < end {
		if tbl.PageSize(va) == 0 {
			va += mem.FrameSize
			continue
		}
		frame, pages, err := tbl.Unmap(cpu, va)
		if err != nil {
			return got, err
		}
		got = append(got, unmapped{va, frame, pages})
		va += mem.VirtAddr(pages * mem.FrameSize)
	}
	return got, nil
}

// TestUnmapRangeMatchesPageScan fills the top 3 GiB of twin 4- and
// 5-level tables with the same random sparse mix of 1 GiB, 2 MiB and
// 4 KiB leaves. On one table Next and UnmapRange run over random
// ranges and ranges that end at MaxVirt; on the other a per-page
// PageSize scan finds and unmaps the same pages. The pages reported,
// the simulated time and the remaining tables must agree.
func TestUnmapRangeMatchesPageScan(t *testing.T) {
	const (
		gib = mem.VirtAddr(1 << 30)
		mib = mem.VirtAddr(1 << 20)
	)
	for _, levels := range []int{Levels4, Levels5} {
		for seed := uint64(1); seed <= 3; seed++ {
			a, b := newTwin(t, levels), newTwin(t, levels)
			rng := sim.NewRNG(seed)
			top := a.tbl.MaxVirt()
			lo := top - 3*gib
			randVA := func() mem.VirtAddr {
				return lo + mem.VirtAddr(rng.Intn(3*1<<18))*mem.FrameSize
			}
			// fill maps n leaves of leafPages pages at random aligned
			// addresses in both twins; a map that would overlap an
			// existing leaf fails the same way on both and is skipped.
			fill := func(n, leafPages int) {
				for i := 0; i < n; i++ {
					va := randVA() &^ (mem.VirtAddr(leafPages)*mem.FrameSize - 1)
					for _, w := range []*twin{a, b} {
						switch leafPages {
						case 1:
							_ = w.tbl.Map(w.cpu, va, 7, FlagRead)
						case mem.HugeFrames2M:
							_ = w.tbl.Map2M(w.cpu, va, 512, FlagRead)
						default:
							_ = w.tbl.Map1G(w.cpu, va, 0, FlagRead)
						}
					}
				}
			}
			fill(1, mem.HugeFrames1G)
			fill(24, mem.HugeFrames2M)
			fill(300, 1)
			checkNext := func(va, end mem.VirtAddr) {
				t.Helper()
				want := scanPresent(a.tbl, va, end)
				for _, c := range []*Cursor{&a.cur, {t: a.tbl}} {
					got, ok := c.Next(va, end)
					if !ok {
						got = end
					}
					if got != want {
						t.Fatalf("levels=%d seed=%d: Next(%#x, %#x) = %#x, want %#x",
							levels, seed, uint64(va), uint64(end), uint64(got), uint64(want))
					}
				}
			}
			checkUnmap := func(va, end mem.VirtAddr) {
				t.Helper()
				var got []unmapped
				err := a.cur.UnmapRange(a.cpu, va, end, func(va mem.VirtAddr, frame mem.Frame, pages uint64) error {
					got = append(got, unmapped{va, frame, pages})
					return nil
				})
				want, werr := scanUnmap(b.tbl, b.cpu, va, end)
				if err != nil || werr != nil {
					t.Fatalf("levels=%d seed=%d: UnmapRange(%#x, %#x): %v, scan: %v", levels, seed, uint64(va), uint64(end), err, werr)
				}
				if len(got) != len(want) {
					t.Fatalf("levels=%d seed=%d: UnmapRange(%#x, %#x) unmapped %d leaves, scan %d",
						levels, seed, uint64(va), uint64(end), len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("levels=%d seed=%d: UnmapRange(%#x, %#x) leaf %d = %+v, scan %+v",
							levels, seed, uint64(va), uint64(end), i, got[i], want[i])
					}
				}
				if err := compareTwins(a, b); err != nil {
					t.Fatalf("levels=%d seed=%d: UnmapRange(%#x, %#x): %v", levels, seed, uint64(va), uint64(end), err)
				}
			}
			for i := 0; i < 200; i++ {
				va := randVA()
				end := va + mem.VirtAddr(1+rng.Intn(1<<16))*mem.FrameSize
				if end > top {
					end = top
				}
				checkNext(va, end)
				checkNext(va, top)
			}
			// Ranges that start below the window, past the last
			// mapping, at MaxVirt, or are empty.
			checkNext(lo-4*mib, lo+4*mib)
			checkNext(top-mem.FrameSize, top)
			checkNext(top, top)
			checkNext(lo, lo)
			for i := 0; i < 40; i++ {
				va := randVA()
				end := va + mem.VirtAddr(1+rng.Intn(1<<14))*mem.FrameSize
				if i%4 == 0 || end > top {
					end = top
				}
				checkUnmap(va, end)
				fill(2, mem.HugeFrames2M)
				fill(40, 1)
			}
			checkUnmap(lo-4*mib, top)
			if a.tbl.MappedPages() != 0 || a.tbl.Nodes() != 1 {
				t.Fatalf("levels=%d seed=%d: %d pages in %d nodes left after unmapping everything",
					levels, seed, a.tbl.MappedPages(), a.tbl.Nodes())
			}
		}
	}
}
