package vm

import (
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Touch with a warm TLB is the innermost loop of every "access one
// byte of each page" experiment; the whole path — TLB probe, data
// reference charge, referenced-bit update — must not allocate host
// memory.
func TestTouchTLBHitAllocFree(t *testing.T) {
	m := newMachine(t, 4096)
	as, err := m.kernel.NewAddressSpace()
	if err != nil {
		t.Fatal(err)
	}
	va, err := as.Mmap(MmapRequest{Pages: 1, Prot: rw, Anon: true, Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the TLB so the measured iterations all hit.
	if err := as.Touch(va, true); err != nil {
		t.Fatal(err)
	}
	for _, write := range []bool{false, true} {
		allocs := testing.AllocsPerRun(1000, func() {
			if err := as.Touch(va, write); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("Touch(write=%v) on TLB hit allocates %v objects per access, want 0", write, allocs)
		}
	}
}

// The TLB-miss/page-walk path (flush between accesses) may touch the
// TLB's insert machinery but must also stay allocation-free once the
// page is mapped.
func TestTouchWalkAllocFree(t *testing.T) {
	m := newMachine(t, 4096)
	as, err := m.kernel.NewAddressSpace()
	if err != nil {
		t.Fatal(err)
	}
	va, err := as.Mmap(MmapRequest{Pages: 1, Prot: rw, Anon: true, Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := as.Touch(va, false); err != nil {
		t.Fatal(err)
	}
	tlb := m.kernel.TLBFor(m.kernel.Machine.Current())
	allocs := testing.AllocsPerRun(1000, func() {
		tlb.FlushAll()
		if err := as.Touch(va, false); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Touch via page walk allocates %v objects per access, want 0", allocs)
	}
}

// TestFaultUnmapAllocFree pins the baseline's per-page fault and unmap
// path at zero host allocations in steady state: demand-faulting every
// page of a mapping (frame allocation, zeroing, struct-page and rmap
// tracking, PTE install) and dropping them again with MADV_DONTNEED
// reuses the frame table, the recycled PageInfo records and the
// page-table nodes of the rounds before.
func TestFaultUnmapAllocFree(t *testing.T) {
	const pages = 256
	m := newMachine(t, 4096)
	as, err := m.kernel.NewAddressSpace()
	if err != nil {
		t.Fatal(err)
	}
	va, err := as.Mmap(MmapRequest{Pages: pages, Prot: rw, Anon: true})
	if err != nil {
		t.Fatal(err)
	}
	round := func() {
		for p := uint64(0); p < pages; p++ {
			if err := as.Touch(va+mem.VirtAddr(p*mem.FrameSize), true); err != nil {
				t.Fatal(err)
			}
		}
		if err := as.MadviseDontneed(va, pages); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
		t.Fatalf("fault+unmap of %d pages allocates %v objects per round, want 0", pages, allocs)
	}
	if err := m.kernel.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPopulateZapAllocFree pins the baseline's populate and zap loops
// at zero host allocations in steady state: mlock populates every page
// of an existing mapping (probe, frame, struct page, rmap, PTE through
// one page-table cursor) and MADV_DONTNEED unmaps them again through
// the cursor's range unmap, whose per-page work is a callback.
func TestPopulateZapAllocFree(t *testing.T) {
	const pages = 512
	m := newMachine(t, 4096)
	as, err := m.kernel.NewAddressSpace()
	if err != nil {
		t.Fatal(err)
	}
	va, err := as.Mmap(MmapRequest{Pages: pages, Prot: rw, Anon: true})
	if err != nil {
		t.Fatal(err)
	}
	round := func() {
		if err := as.Mlock(va); err != nil {
			t.Fatal(err)
		}
		if err := as.MadviseDontneed(va, pages); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
		t.Fatalf("populate+zap of %d pages allocates %v objects per round, want 0", pages, allocs)
	}
	if err := m.kernel.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestForkDestroyAllocsPerPage pins fork's per-page copy and the
// child's teardown at zero host allocations per page: a fork+Destroy
// round allocates the child's address space, table and VMA copies, the
// same number of objects at 8 pages as at 512.
func TestForkDestroyAllocsPerPage(t *testing.T) {
	allocs := func(pages uint64) float64 {
		m := newMachine(t, 4096)
		as, err := m.kernel.NewAddressSpace()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := as.Mmap(MmapRequest{Pages: pages, Prot: rw, Anon: true, Populate: true}); err != nil {
			t.Fatal(err)
		}
		round := func() {
			child, err := as.Fork()
			if err != nil {
				t.Fatal(err)
			}
			if err := child.Destroy(); err != nil {
				t.Fatal(err)
			}
		}
		round()
		n := testing.AllocsPerRun(10, round)
		if err := m.kernel.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if small, large := allocs(8), allocs(512); small != large {
		t.Fatalf("fork+Destroy allocates %v objects per round at 8 pages and %v at 512, want equal", small, large)
	}
}

// BenchmarkPopulateMunmap maps 512 pages (2 MiB) with MAP_POPULATE and
// unmaps them: the baseline's per-page install and teardown loops.
func BenchmarkPopulateMunmap(b *testing.B) {
	const pages = 512
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	memory, err := mem.New(clock, &params, mem.Config{DRAMFrames: 1 << 19})
	if err != nil {
		b.Fatal(err)
	}
	kernel, err := NewKernel(clock, &params, memory, Config{PoolFrames: 1 << 19})
	if err != nil {
		b.Fatal(err)
	}
	as, err := kernel.NewAddressSpace()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va, err := as.Mmap(MmapRequest{Pages: pages, Prot: rw, Anon: true, Populate: true})
		if err != nil {
			b.Fatal(err)
		}
		if err := as.Munmap(va, pages); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDemandMunmap maps n pages without populating them, writes
// one, and unmaps the range. Simulated unmap time does not depend on
// n, so neither should host time per round: munmap skips the absent
// page-table subtrees instead of probing each 4 KiB page.
func BenchmarkDemandMunmap(b *testing.B) {
	for _, pages := range []uint64{256, 4096, 65536} {
		b.Run(fmt.Sprint(pages), func(b *testing.B) {
			clock := &sim.Clock{}
			params := sim.DefaultParams()
			memory, err := mem.New(clock, &params, mem.Config{DRAMFrames: 1 << 19})
			if err != nil {
				b.Fatal(err)
			}
			kernel, err := NewKernel(clock, &params, memory, Config{PoolFrames: 1 << 19})
			if err != nil {
				b.Fatal(err)
			}
			as, err := kernel.NewAddressSpace()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				va, err := as.Mmap(MmapRequest{Pages: pages, Prot: rw, Anon: true})
				if err != nil {
					b.Fatal(err)
				}
				if err := as.Touch(va+mem.VirtAddr(pages/2*mem.FrameSize), true); err != nil {
					b.Fatal(err)
				}
				if err := as.Munmap(va, pages); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkForkDestroy forks an address space with 512 populated
// pages and destroys the child: the baseline's per-page copy (parent
// probe and COW protect, child map and rmap) and its teardown.
func BenchmarkForkDestroy(b *testing.B) {
	const pages = 512
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	memory, err := mem.New(clock, &params, mem.Config{DRAMFrames: 1 << 19})
	if err != nil {
		b.Fatal(err)
	}
	kernel, err := NewKernel(clock, &params, memory, Config{PoolFrames: 1 << 19})
	if err != nil {
		b.Fatal(err)
	}
	as, err := kernel.NewAddressSpace()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := as.Mmap(MmapRequest{Pages: pages, Prot: rw, Anon: true, Populate: true}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		child, err := as.Fork()
		if err != nil {
			b.Fatal(err)
		}
		if err := child.Destroy(); err != nil {
			b.Fatal(err)
		}
	}
}
