package vm

import (
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/sim"
)

// parallelVMWorkload runs a per-CPU slice of VM activity — mmap,
// populate, touch, COW via mprotect round-trips, madvise, munmap — on
// an address space homed on the task's CPU and backed by its arena.
// Single-CPU shootdown masks keep every IPI target set empty, so the
// whole workload free-runs without sync points.
func parallelVMWorkload(t *testing.T, k *Kernel, cpu *sim.CPU, pages uint64) error {
	as, err := k.NewAddressSpaceOn(cpu)
	if err != nil {
		return err
	}
	va, err := as.Mmap(MmapRequest{Pages: pages, Prot: rw, Anon: true, Populate: true})
	if err != nil {
		return err
	}
	rng := sim.NewRNG(uint64(1+cpu.ID()) * 0x9E3779B97F4A7C15)
	for i := 0; i < int(pages)*2; i++ {
		p := rng.Intn(int(pages))
		if err := as.Touch(va+mem.VirtAddr(uint64(p)*mem.FrameSize), rng.Intn(2) == 0); err != nil {
			return err
		}
	}
	// Drop and re-demand half the region.
	if err := as.MadviseDontneed(va, pages/2); err != nil {
		return err
	}
	for p := uint64(0); p < pages/2; p++ {
		if err := as.Touch(va+mem.VirtAddr(p*mem.FrameSize), true); err != nil {
			return err
		}
	}
	if err := as.Munmap(va, pages); err != nil {
		return err
	}
	return as.Destroy()
}

// runVMPhase builds an SMP machine with carved arenas, runs the VM
// workload under RunParallel with the given host-parallel setting, and
// returns the machine state and kernel for comparison.
func runVMPhase(t *testing.T, cpus int, hostpar bool, pages uint64) (*sim.MachineState, *Kernel) {
	t.Helper()
	machine, kernel := newSMPMachine(t, cpus, 0)
	machine.SetHostParallel(hostpar)
	// Each CPU's arena: enough for the workload's frames plus its
	// page-table nodes.
	if err := kernel.CarveArenas(pages * 4); err != nil {
		t.Fatal(err)
	}
	if err := machine.RunParallel(func(c *sim.CPU) error {
		return parallelVMWorkload(t, kernel, c, pages)
	}); err != nil {
		t.Fatal(err)
	}
	if err := machine.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := kernel.ReleaseArenas(); err != nil {
		t.Fatal(err)
	}
	return machine.CaptureState(), kernel
}

// TestVMRunParallelMatchesSerial is the vm-layer half of the
// determinism contract: the same arena-backed per-CPU VM workload must
// leave byte-identical machine state whether the CPU contexts ran one
// at a time or on real host goroutines.
func TestVMRunParallelMatchesSerial(t *testing.T) {
	for _, cpus := range []int{1, 2, 4, 8} {
		serial, _ := runVMPhase(t, cpus, false, 64)
		par, _ := runVMPhase(t, cpus, true, 64)
		if d := serial.Diff(par); d != "" {
			t.Errorf("cpus=%d: host-parallel state diverged from serial:\n%s", cpus, d)
		}
	}
}

// TestCarveArenasRoutesFrames checks the arena plumbing: address
// spaces home on their CPU's arena, frames allocated there are tracked
// in the arena's domain, and release refuses while pages are live.
func TestCarveArenasRoutesFrames(t *testing.T) {
	machine, kernel := newSMPMachine(t, 4, 0)
	if err := kernel.CarveArenas(256); err != nil {
		t.Fatal(err)
	}
	if err := kernel.CarveArenas(256); err == nil {
		t.Fatal("second CarveArenas did not fail")
	}
	cpu := machine.CPU(2)
	ar := kernel.ArenaFor(cpu)
	if ar == nil || ar.CPU() != cpu {
		t.Fatalf("ArenaFor(cpu2) = %v", ar)
	}
	as, err := kernel.NewAddressSpaceOn(cpu)
	if err != nil {
		t.Fatal(err)
	}
	va, err := as.Mmap(MmapRequest{Pages: 8, Prot: rw, Anon: true, Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := ar.TrackedPages(); got != 8 {
		t.Fatalf("arena tracks %d pages, want 8", got)
	}
	if got := kernel.meta.live; got != 0 {
		t.Fatalf("global domain tracks %d pages, want 0", got)
	}
	if got := kernel.TrackedPages(); got != 8 {
		t.Fatalf("TrackedPages() = %d, want 8", got)
	}
	pa, _, ok := as.pt.Lookup(va)
	if !ok {
		t.Fatal("populated page not mapped")
	}
	if got := kernel.arenaOf(pa.Frame()); got != ar {
		t.Fatalf("frame %d routed to arena %v, want cpu-2 arena", pa.Frame(), got)
	}
	if err := machine.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	if err := kernel.ReleaseArenas(); err == nil {
		t.Fatal("ReleaseArenas succeeded with live arena pages")
	} else if !strings.Contains(err.Error(), "tracks") {
		t.Fatalf("unexpected release error: %v", err)
	}
	if err := as.Destroy(); err != nil {
		t.Fatal(err)
	}
	if err := kernel.ReleaseArenas(); err != nil {
		t.Fatal(err)
	}
	if kernel.ArenaFor(cpu) != nil {
		t.Fatal("arena survived release")
	}
	if err := machine.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestArenaExhaustionIsHardError: arenas must fail allocation rather
// than trigger reclaim (reclaim is cross-CPU and forbidden in-phase).
func TestArenaExhaustionIsHardError(t *testing.T) {
	machine, kernel := newSMPMachine(t, 2, 0)
	if err := kernel.CarveArenas(16); err != nil {
		t.Fatal(err)
	}
	as, err := kernel.NewAddressSpaceOn(machine.CPU(0))
	if err != nil {
		t.Fatal(err)
	}
	_, err = as.Mmap(MmapRequest{Pages: 64, Prot: rw, Anon: true, Populate: true})
	if err == nil {
		t.Fatal("overcommitted arena populate succeeded")
	}
	if !strings.Contains(err.Error(), "arena out of memory") {
		t.Fatalf("unexpected error: %v", err)
	}
	if got := kernel.Stats().Value("reclaimed_pages"); got != 0 {
		t.Fatalf("arena exhaustion triggered reclaim of %d pages", got)
	}
}

// TestParallelSharedKernelCounters: counters shared across CPU contexts
// are exact sums regardless of host interleaving.
func TestParallelSharedKernelCounters(t *testing.T) {
	const cpus, pages = 4, 32
	machine, kernel := newSMPMachine(t, cpus, 0)
	machine.SetHostParallel(true)
	if err := kernel.CarveArenas(pages * 4); err != nil {
		t.Fatal(err)
	}
	if err := machine.RunParallel(func(c *sim.CPU) error {
		as, err := kernel.NewAddressSpaceOn(c)
		if err != nil {
			return err
		}
		va, err := as.Mmap(MmapRequest{Pages: pages, Prot: rw, Anon: true})
		if err != nil {
			return err
		}
		for p := uint64(0); p < pages; p++ {
			if err := as.Touch(va+mem.VirtAddr(p*mem.FrameSize), true); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := kernel.Stats().Value("minor_faults"); got != cpus*pages {
		t.Fatalf("minor_faults = %d, want %d", got, cpus*pages)
	}
	if got := kernel.Stats().Value("anon_allocs"); got != cpus*pages {
		t.Fatalf("anon_allocs = %d, want %d", got, cpus*pages)
	}
}

// TestParallelCOWWithinCPU exercises the cowBreak paths inside a
// host-parallel phase: fork is cross-CPU, so COW sharing is set up
// out of phase and the breaks (single-CPU masks, no IPIs) happen
// in-phase on each space's own CPU.
func TestParallelCOWWithinCPU(t *testing.T) {
	const cpus, pages = 4, 16
	machine, kernel := newSMPMachine(t, cpus, 0)
	machine.SetHostParallel(true)
	if err := kernel.CarveArenas(pages * 8); err != nil {
		t.Fatal(err)
	}
	spaces := make([]*AddressSpace, cpus)
	vas := make([]mem.VirtAddr, cpus)
	for i := 0; i < cpus; i++ {
		as, err := kernel.NewAddressSpaceOn(machine.CPU(i))
		if err != nil {
			t.Fatal(err)
		}
		va, err := as.Mmap(MmapRequest{Pages: pages, Prot: rw, Anon: true, Populate: true})
		if err != nil {
			t.Fatal(err)
		}
		// Write-protect with COW semantics via a read-only round trip:
		// downgrade, then restore write permission lazily through faults.
		if err := as.Mprotect(va, pages, pagetable.FlagRead); err != nil {
			t.Fatal(err)
		}
		if err := as.Mprotect(va, pages, rw); err != nil {
			t.Fatal(err)
		}
		spaces[i], vas[i] = as, va
	}
	if err := machine.RunParallel(func(c *sim.CPU) error {
		as, va := spaces[c.ID()], vas[c.ID()]
		for p := uint64(0); p < pages; p++ {
			if err := as.Touch(va+mem.VirtAddr(p*mem.FrameSize), true); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := machine.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
