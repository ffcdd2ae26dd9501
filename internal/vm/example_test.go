package vm_test

import (
	"fmt"
	"log"

	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Example demonstrates the baseline VM: demand-paged anonymous memory,
// per-page faulting, and the fault counters the paper's figures track.
func Example() {
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	memory, err := mem.New(clock, &params, mem.Config{DRAMFrames: 16384})
	if err != nil {
		log.Fatal(err)
	}
	kernel, err := vm.NewKernel(clock, &params, memory, vm.Config{PoolFrames: 16384})
	if err != nil {
		log.Fatal(err)
	}
	as, err := kernel.NewAddressSpace()
	if err != nil {
		log.Fatal(err)
	}

	const rw = pagetable.FlagRead | pagetable.FlagWrite | pagetable.FlagUser
	va, err := as.Mmap(vm.MmapRequest{Pages: 8, Prot: rw, Anon: true, Private: true})
	if err != nil {
		log.Fatal(err)
	}
	// Touch every page: each first touch takes a minor fault.
	for p := uint64(0); p < 8; p++ {
		if err := as.Touch(va+mem.VirtAddr(p*mem.FrameSize), true); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("minor faults: %d, resident pages: %d\n",
		kernel.Stats().Value("minor_faults"), as.PageTable().MappedPages())

	// Second pass hits the TLB: no new faults.
	for p := uint64(0); p < 8; p++ {
		if err := as.Touch(va+mem.VirtAddr(p*mem.FrameSize), false); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("minor faults after re-touch: %d\n", kernel.Stats().Value("minor_faults"))
	// Output:
	// minor faults: 8, resident pages: 8
	// minor faults after re-touch: 8
}
