package vm

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/sim"
)

const ro = pagetable.FlagRead | pagetable.FlagUser

// newSMPMachine builds a kernel on an explicit n-CPU machine.
func newSMPMachine(t *testing.T, n int, seed uint64) (*sim.Machine, *Kernel) {
	t.Helper()
	params := sim.DefaultParams()
	machine := sim.NewMachine(&params, n, seed)
	clock := machine.Clock()
	memory, err := mem.New(clock, &params, mem.Config{DRAMFrames: 32768, NVMFrames: 16384})
	if err != nil {
		t.Fatal(err)
	}
	kernel, err := NewKernel(clock, &params, memory, Config{PoolBase: 0, PoolFrames: 32768})
	if err != nil {
		t.Fatal(err)
	}
	return machine, kernel
}

func TestPerCPUTLBsAreIndependent(t *testing.T) {
	machine, kernel := newSMPMachine(t, 4, 0)
	if len(kernel.tlbs) != 4 {
		t.Fatalf("kernel has %d TLBs, want 4", len(kernel.tlbs))
	}
	as, err := kernel.NewAddressSpace()
	if err != nil {
		t.Fatal(err)
	}
	va, err := as.Mmap(MmapRequest{Pages: 4, Prot: rw, Anon: true, Private: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := as.Touch(va, true); err != nil {
		t.Fatal(err)
	}
	// The touch cached the translation only on the AS's home CPU.
	home := as.cpu
	if _, ok := kernel.TLBFor(home).Peek(as.asid, va); !ok {
		t.Fatal("translation not cached on home CPU")
	}
	for _, cpu := range machine.CPUs() {
		if _, ok := kernel.TLBFor(cpu).Peek(as.asid, va); ok && cpu != home {
			t.Fatalf("translation leaked into CPU %d's TLB", cpu.ID())
		}
	}
}

func TestShootdownReachesEveryCPUTheASRanOn(t *testing.T) {
	machine, kernel := newSMPMachine(t, 4, 0)
	as, err := kernel.NewAddressSpace()
	if err != nil {
		t.Fatal(err)
	}
	va, err := as.Mmap(MmapRequest{Pages: 2, Prot: rw, Anon: true, Private: true})
	if err != nil {
		t.Fatal(err)
	}
	// Run (and fault) on every CPU so each TLB caches both pages.
	for _, cpu := range machine.CPUs() {
		as.RunOn(cpu)
		for p := uint64(0); p < 2; p++ {
			if err := as.Touch(va+mem.VirtAddr(p*mem.FrameSize), true); err != nil {
				t.Fatal(err)
			}
		}
		if _, ok := kernel.TLBFor(cpu).Peek(as.asid, va); !ok {
			t.Fatalf("CPU %d did not cache the translation", cpu.ID())
		}
	}
	sent0 := machine.CPUs()[3].Stats().Value("ipis_sent")
	if err := as.Munmap(va, 2); err != nil {
		t.Fatal(err)
	}
	for _, cpu := range machine.CPUs() {
		if _, ok := kernel.TLBFor(cpu).Peek(as.asid, va); ok {
			t.Fatalf("stale translation on CPU %d after munmap", cpu.ID())
		}
	}
	// The unmap ran on the AS's current home (CPU 3 after the loop) and
	// must have IPI'd the other three CPUs — once: the burst's
	// invalidations coalesce into a single shootdown round (the
	// mmu_gather batching), not one round per page.
	if got := machine.CPUs()[3].Stats().Value("ipis_sent") - sent0; got != 3 {
		t.Fatalf("ipis_sent = %d, want 3 (one coalesced round to 3 remote CPUs)", got)
	}
}

// TestNoStaleTranslationsQuickProperty is the ISSUE's property test:
// after any random interleaving of map/unmap/protect (with touches from
// random CPUs in between), no CPU's TLB holds a stale translation —
// every unmapped page is absent from all TLBs, and no TLB entry for a
// read-only page still carries the write flag.
func TestNoStaleTranslationsQuickProperty(t *testing.T) {
	const cpus = 4
	fn := func(seed uint64) bool {
		machine, kernel := newSMPMachine(t, cpus, seed)
		rng := sim.NewRNG(seed)

		type region struct {
			as    *AddressSpace
			va    mem.VirtAddr
			pages uint64
			prot  pagetable.Flags
		}
		var spaces []*AddressSpace
		for i := 0; i < 3; i++ {
			as, err := kernel.NewAddressSpace()
			if err != nil {
				t.Log(err)
				return false
			}
			spaces = append(spaces, as)
		}
		var regions []region
		// Place regions at spaced fixed addresses so adjacent VMAs never
		// merge (mprotect below covers exactly one VMA).
		nextVA := mem.VirtAddr(1) << 32

		checkNoStale := func(r region, unmapped bool) bool {
			for _, cpu := range machine.CPUs() {
				for p := uint64(0); p < r.pages; p++ {
					tr, ok := kernel.TLBFor(cpu).Peek(r.as.asid, r.va+mem.VirtAddr(p*mem.FrameSize))
					if !ok {
						continue
					}
					if unmapped {
						t.Logf("stale translation for unmapped %#x on CPU %d", uint64(r.va), cpu.ID())
						return false
					}
					if tr.Flags&pagetable.FlagWrite != 0 && r.prot&pagetable.FlagWrite == 0 {
						t.Logf("stale writable translation for read-only %#x on CPU %d", uint64(r.va), cpu.ID())
						return false
					}
				}
			}
			return true
		}

		for step := 0; step < 120; step++ {
			as := spaces[rng.Intn(len(spaces))]
			switch rng.Intn(4) {
			case 0: // map a fresh region
				pages := uint64(1 + rng.Intn(8))
				addr := nextVA
				nextVA += 64 * mem.FrameSize
				va, err := as.Mmap(MmapRequest{Addr: addr, Pages: pages, Prot: rw, Anon: true, Private: true})
				if err != nil {
					t.Log(err)
					return false
				}
				regions = append(regions, region{as: as, va: va, pages: pages, prot: rw})
			case 1: // touch from a random CPU
				if len(regions) == 0 {
					continue
				}
				r := regions[rng.Intn(len(regions))]
				r.as.RunOn(machine.CPU(rng.Intn(cpus)))
				va := r.va + mem.VirtAddr(uint64(rng.Intn(int(r.pages)))*mem.FrameSize)
				if err := r.as.Touch(va, r.prot&pagetable.FlagWrite != 0); err != nil {
					t.Log(err)
					return false
				}
			case 2: // unmap
				if len(regions) == 0 {
					continue
				}
				i := rng.Intn(len(regions))
				r := regions[i]
				if err := r.as.Munmap(r.va, r.pages); err != nil {
					t.Log(err)
					return false
				}
				regions = append(regions[:i], regions[i+1:]...)
				if !checkNoStale(r, true) {
					return false
				}
			case 3: // drop write permission
				if len(regions) == 0 {
					continue
				}
				r := &regions[rng.Intn(len(regions))]
				if err := r.as.Mprotect(r.va, r.pages, ro); err != nil {
					t.Log(err)
					return false
				}
				r.prot = ro
				if !checkNoStale(*r, false) {
					return false
				}
			}
		}
		// Final sweep: every live region's cached entries must match its
		// protection; then unmap everything and require empty TLBs.
		for _, r := range regions {
			if !checkNoStale(r, false) {
				return false
			}
			if err := r.as.Munmap(r.va, r.pages); err != nil {
				t.Log(err)
				return false
			}
			if !checkNoStale(r, true) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
