package vm

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/buddy"
	"repro/internal/mem"
	"repro/internal/sim"
)

// newPoolsKernel builds a two-CPU kernel with all three kinds of frame
// pool: the global DRAM pool, a carved arena per CPU, and a slow pool
// over NVM. One address space has populated pages below and above the
// arenas, so the tracked set is not empty.
func newPoolsKernel(t *testing.T) *Kernel {
	t.Helper()
	params := sim.DefaultParams()
	machine := sim.NewMachine(&params, 2, 0)
	clock := machine.Clock()
	memory, err := mem.New(clock, &params, mem.Config{DRAMFrames: 32768, NVMFrames: 16384})
	if err != nil {
		t.Fatal(err)
	}
	kernel, err := NewKernel(clock, &params, memory, Config{
		PoolBase: 0, PoolFrames: 32768,
		SlowPoolBase: 32768, SlowPoolFrames: 16384,
	})
	if err != nil {
		t.Fatal(err)
	}
	as, err := kernel.NewAddressSpace()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := as.Mmap(MmapRequest{Pages: 16, Prot: rw, Anon: true, Populate: true}); err != nil {
		t.Fatal(err)
	}
	if err := kernel.CarveArenas(512); err != nil {
		t.Fatal(err)
	}
	// Populate past the arenas too, so tracked global frames lie on
	// both sides of them.
	if _, err := as.Mmap(MmapRequest{Pages: 1024, Prot: rw, Anon: true, Populate: true}); err != nil {
		t.Fatal(err)
	}
	if err := kernel.CheckInvariants(); err != nil {
		t.Fatalf("clean kernel: %v", err)
	}
	return kernel
}

// firstFree returns the first free block of pool in free-list order.
func firstFree(t *testing.T, pool *buddy.Allocator) (mem.Frame, uint64) {
	t.Helper()
	var start mem.Frame
	var count uint64
	pool.VisitFree(func(s mem.Frame, n uint64) {
		if count == 0 {
			start, count = s, n
		}
	})
	if count == 0 {
		t.Fatal("pool has no free block")
	}
	return start, count
}

// TestCheckInvariantsRejectsTrackedFreeFrame gives a frame on each
// pool's free list live metadata — at the first and at the last frame
// of a free block — and expects the use-after-free report naming that
// frame and pool.
func TestCheckInvariantsRejectsTrackedFreeFrame(t *testing.T) {
	pools := []struct {
		name, label string
		pool        func(k *Kernel) *buddy.Allocator
		domain      func(k *Kernel) *metaDomain
	}{
		{"global", "global buddy", func(k *Kernel) *buddy.Allocator { return k.pool }, func(k *Kernel) *metaDomain { return &k.meta }},
		{"arena", "cpu 1 arena buddy", func(k *Kernel) *buddy.Allocator { return k.arenaByCPU[1].pool }, func(k *Kernel) *metaDomain { return &k.arenaByCPU[1].meta }},
		{"slow", "slow-pool", func(k *Kernel) *buddy.Allocator { return k.slowPool }, func(k *Kernel) *metaDomain { return &k.meta }},
	}
	for _, p := range pools {
		for _, last := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/last=%v", p.name, last), func(t *testing.T) {
				k := newPoolsKernel(t)
				start, count := firstFree(t, p.pool(k))
				f := start
				if last {
					f = start + mem.Frame(count-1)
				}
				p.domain(k).put(f, &PageInfo{Frame: f})
				want := fmt.Sprintf("frame %d is on the %s free list but still tracked", f, p.label)
				err := k.CheckInvariants()
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("CheckInvariants = %v, want %q", err, want)
				}
			})
		}
	}
}

// TestCheckInvariantsRejectsFreedMappedFrame frees the frame behind a
// live mapping straight into its pool, leaving its metadata and PTE in
// place.
func TestCheckInvariantsRejectsFreedMappedFrame(t *testing.T) {
	k := newPoolsKernel(t)
	var f mem.Frame
	k.meta.pages.Visit(func(g mem.Frame, _ *PageInfo) bool {
		f = g
		return true
	})
	if err := k.poolFor(f).FreeRange(f, 1); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("frame %d is on the global buddy free list but still tracked", f)
	if err := k.CheckInvariants(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("CheckInvariants = %v, want %q", err, want)
	}
}

// TestCheckInvariantsRejectsArenaReturnedEarly returns an arena's range
// to the global pool while the arena still tracks a page in it: the
// frame is then free in the global pool but tracked in the arena's
// domain, which the global pool's audit must still see.
func TestCheckInvariantsRejectsArenaReturnedEarly(t *testing.T) {
	k := newPoolsKernel(t)
	ar := k.arenaByCPU[0]
	f := ar.base + 3
	ar.meta.put(f, &PageInfo{Frame: f})
	if err := k.pool.FreeRun(buddy.Run{Start: ar.base, Count: ar.frames}); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("frame %d is on the global buddy free list but still tracked", f)
	if err := k.CheckInvariants(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("CheckInvariants = %v, want %q", err, want)
	}
}

// TestTrackedFramesAscending: the use-after-free audit binary-searches
// the tracked frames, so splicing the arena domains into the global
// domain's walk must yield every tracked frame once, in ascending
// order, with global frames on both sides of the arenas.
func TestTrackedFramesAscending(t *testing.T) {
	k := newPoolsKernel(t)
	for _, cpu := range k.Machine.CPUs() {
		as, err := k.NewAddressSpaceOn(cpu)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := as.Mmap(MmapRequest{Pages: 8, Prot: rw, Anon: true, Populate: true}); err != nil {
			t.Fatal(err)
		}
	}
	frames := k.trackedFrames()
	if len(frames) != k.TrackedPages() || !slices.IsSorted(frames) {
		t.Fatalf("%d tracked frames (sorted: %v), TrackedPages() = %d", len(frames), slices.IsSorted(frames), k.TrackedPages())
	}
	for _, ar := range k.arenas {
		end := ar.base + mem.Frame(ar.frames)
		if ar.meta.live == 0 || frames[0] >= ar.base || frames[len(frames)-1] < end {
			t.Fatalf("tracked frames [%d, %d] do not surround the arena [%d, %d) with %d pages",
				frames[0], frames[len(frames)-1], ar.base, end, ar.meta.live)
		}
	}
}

// TestCheckInvariantsRejectsUncountedPage files a page in a domain's
// table without counting it.
func TestCheckInvariantsRejectsUncountedPage(t *testing.T) {
	k := newPoolsKernel(t)
	var f mem.Frame
	k.meta.pages.Visit(func(g mem.Frame, _ *PageInfo) bool {
		f = g
		return true
	})
	k.meta.pages.Set(f+1, &PageInfo{Frame: f + 1})
	want := "global domain holds"
	if err := k.CheckInvariants(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("CheckInvariants = %v, want %q", err, want)
	}
}
