package pagetable

import (
	"fmt"
	"testing"

	"repro/internal/buddy"
	"repro/internal/mem"
	"repro/internal/sim"
)

// refWalk is the per-level walk Walk replaced: it checks the address
// range and charges one WalkLevelRef on every level it visits. It
// survives only as the reference below.
func refWalk(t *Table, cpu *sim.CPU, va mem.VirtAddr) (pa mem.PhysAddr, flags Flags, levels int, ok bool) {
	refSpan := func(level int) uint64 {
		s := uint64(1)
		for i := 1; i < level; i++ {
			s *= EntriesPerNode
		}
		return s
	}
	n := t.root
	for {
		levels++
		cpu.Advance(t.params.WalkLevelRef)
		if va >= mem.VirtAddr(refSpan(t.levels+1))<<mem.FrameShift {
			return 0, 0, levels, false
		}
		e := &n.entries[indexAt(va, n.level)]
		if !e.present {
			return 0, 0, levels, false
		}
		if n.level == 1 || e.huge {
			off := uint64(va) % (refSpan(n.level) * mem.FrameSize)
			return e.frame.Addr() + mem.PhysAddr(off), e.flags, levels, true
		}
		n = e.child
	}
}

// walkTable returns a table of the given depth holding a 4 KiB, a
// 2 MiB and a 1 GiB leaf, the vas of those leaves, and the CPU and
// clock charged by it.
func walkTable(tb testing.TB, levels int) (*Table, *sim.CPU, *sim.Clock, [3]mem.VirtAddr) {
	tb.Helper()
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	cpu := sim.MachineOf(clock, &params).BootCPU()
	bud, err := buddy.New(clock, &params, 0, 1<<20)
	if err != nil {
		tb.Fatal(err)
	}
	tbl, err := New(cpu, &params, NewPool(bud), levels)
	if err != nil {
		tb.Fatal(err)
	}
	vas := [3]mem.VirtAddr{0x7f0000001000, 1<<30 + 3<<21, 5 << 30}
	if err := tbl.Map(cpu, vas[0], 1234, FlagRead|FlagWrite); err != nil {
		tb.Fatal(err)
	}
	if err := tbl.Map2M(cpu, vas[1], 7*mem.HugeFrames2M, FlagRead|FlagUser); err != nil {
		tb.Fatal(err)
	}
	if err := tbl.Map1G(cpu, vas[2], 3*mem.HugeFrames1G, FlagRead|FlagExec); err != nil {
		tb.Fatal(err)
	}
	return tbl, cpu, clock, vas
}

// TestWalkMatchesPerLevelReference compares Walk, which checks the
// address range once and charges every level in one Advance, with the
// per-level walk it replaced: pa, flags, levels, ok and the simulated
// time charged must agree on 4 KiB, 2 MiB and 1 GiB leaves, on
// addresses absent at every level, and beyond MaxVirt. Lookup and
// PageSize, which share Walk's descent, must agree with it too.
func TestWalkMatchesPerLevelReference(t *testing.T) {
	for _, levels := range []int{Levels4, Levels5} {
		t.Run(fmt.Sprint(levels, "-level"), func(t *testing.T) {
			tbl, cpu, clock, leaves := walkTable(t, levels)
			max := tbl.MaxVirt()
			vas := []mem.VirtAddr{
				0, max - 1, max, max + 12345, ^mem.VirtAddr(0),
				100 << 39, // absent at the 4-level root
				100 << 48, // absent at the 5-level root; beyond a 4-level table
				7 << 30,   // absent below the root
				1<<30 + 100<<21,
				leaves[0] + 5<<12,
			}
			for _, leaf := range leaves {
				vas = append(vas, leaf, leaf+1, leaf+0xfff)
			}
			rng := sim.NewRNG(uint64(levels))
			for i := 0; i < 2000; i++ {
				base := leaves[rng.Intn(3)]
				if rng.Intn(4) == 0 {
					base = mem.VirtAddr(rng.Uint64()) & (max<<1 - 1)
				}
				vas = append(vas, base+mem.VirtAddr(rng.Uint64n(4<<30))-2<<30)
			}
			type outcome struct {
				ok     bool
				levels int
				bytes  uint64
			}
			seen := map[outcome]bool{}
			for _, va := range vas {
				t0 := clock.Now()
				wantPA, wantFlags, wantLevels, wantOK := refWalk(tbl, cpu, va)
				wantCost := clock.Since(t0)
				walks := tbl.Stats().Value("walks")
				t1 := clock.Now()
				pa, flags, lv, ok := tbl.Walk(cpu, va)
				cost := clock.Since(t1)
				if pa != wantPA || flags != wantFlags || lv != wantLevels || ok != wantOK || cost != wantCost {
					t.Fatalf("Walk(%#x) = %#x %v %d %v charging %v; per-level reference %#x %v %d %v charging %v",
						uint64(va), uint64(pa), flags, lv, ok, cost, uint64(wantPA), wantFlags, wantLevels, wantOK, wantCost)
				}
				if got := tbl.Stats().Value("walks") - walks; got != 1 {
					t.Fatalf("Walk(%#x) counted %d walks", uint64(va), got)
				}
				t2 := clock.Now()
				lpa, lflags, lok := tbl.Lookup(va)
				size := tbl.PageSize(va)
				if clock.Now() != t2 {
					t.Fatalf("Lookup/PageSize(%#x) charged simulated time", uint64(va))
				}
				if lpa != wantPA || lflags != wantFlags || lok != wantOK {
					t.Fatalf("Lookup(%#x) = %#x %v %v, walk %#x %v %v", uint64(va), uint64(lpa), lflags, lok, uint64(wantPA), wantFlags, wantOK)
				}
				wantSize := uint64(0)
				if wantOK {
					wantSize = tbl.LeafBytes(wantLevels)
				}
				if size != wantSize {
					t.Fatalf("PageSize(%#x) = %d, want %d", uint64(va), size, wantSize)
				}
				seen[outcome{ok, lv, wantSize}] = true
			}
			for _, want := range []outcome{
				{true, levels, 4 << 10}, {true, levels - 1, 2 << 20}, {true, levels - 2, 1 << 30},
			} {
				if !seen[want] {
					t.Errorf("no walk found a %d-byte leaf", want.bytes)
				}
			}
			for lv := 1; lv <= levels; lv++ {
				if !seen[outcome{false, lv, 0}] {
					t.Errorf("no walk found the address absent at reference %d", lv)
				}
			}
		})
	}
}

// BenchmarkWalk measures one page walk of a 4-level table: to a 4 KiB
// leaf, to a 2 MiB leaf, and to an address absent only at the last
// level (a full-depth walk that fails).
func BenchmarkWalk(b *testing.B) {
	tbl, cpu, _, leaves := walkTable(b, Levels4)
	for _, bc := range []struct {
		name string
		va   mem.VirtAddr
		ok   bool
	}{
		{"4k", leaves[0] + 0x123, true},
		{"2m", leaves[1] + 0x12345, true},
		{"absent", leaves[0] + 5<<12, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, ok := tbl.Walk(cpu, bc.va); ok != bc.ok {
					b.Fatalf("Walk(%#x) ok = %v", uint64(bc.va), ok)
				}
			}
		})
	}
}
