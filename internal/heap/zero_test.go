package heap_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/sim"
	"repro/internal/usermode"
	"repro/internal/vm"
)

// vmSpace runs the heap on a baseline address space: regions are
// anonymous mappings and byte access goes through the fault path.
type vmSpace struct{ as *vm.AddressSpace }

type vmRegion struct {
	base  mem.VirtAddr
	pages uint64
}

func (r *vmRegion) Base() mem.VirtAddr { return r.base }
func (r *vmRegion) Pages() uint64      { return r.pages }

func (s vmSpace) AllocPages(pages uint64) (heap.Region, error) {
	va, err := s.as.Mmap(vm.MmapRequest{
		Pages: pages,
		Prot:  pagetable.FlagRead | pagetable.FlagWrite | pagetable.FlagUser,
		Anon:  true,
	})
	if err != nil {
		return nil, err
	}
	return &vmRegion{base: va, pages: pages}, nil
}

func (s vmSpace) FreeRegion(r heap.Region) error { return s.as.Munmap(r.Base(), r.Pages()) }

func (s vmSpace) WriteBuf(a mem.VirtAddr, b []byte) error { return s.as.WriteBuf(a, b) }

func (s vmSpace) ReadBuf(a mem.VirtAddr, b []byte) error { return s.as.ReadBuf(a, b) }

// TestSharedZeroBlockStaysZero churns recycled blocks of every small
// class through the vm, core and usermode spaces — each recycled
// allocation re-zeroes from the shared block — and then asserts that no
// space's WriteBuf wrote into it.
func TestSharedZeroBlockStaysZero(t *testing.T) {
	params := sim.DefaultParams()
	machine := sim.NewMachine(&params, 1, 1)
	memory, err := mem.New(machine.Clock(), &params, mem.Config{DRAMFrames: 16384, NVMFrames: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	kernel, err := vm.NewKernel(machine.Clock(), &params, memory, vm.Config{PoolBase: 0, PoolFrames: 8192})
	if err != nil {
		t.Fatal(err)
	}
	as, err := kernel.NewAddressSpace()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(machine.Clock(), &params, memory, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := sys.NewProcess(core.Ranges)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := usermode.NewGrantTable(machine.Clock(), &params, memory, usermode.Config{PoolBase: 16384, PoolFrames: 1 << 15})
	if err != nil {
		t.Fatal(err)
	}
	up, err := gt.NewProcessOn(machine.BootCPU())
	if err != nil {
		t.Fatal(err)
	}

	spaces := []struct {
		name string
		h    *heap.Heap
	}{
		{"vm", heap.NewOn(vmSpace{as})},
		{"core", heap.New(cp)},
		{"usermode", heap.NewOn(up)},
	}
	dirty := make([]byte, 32<<10)
	for i := range dirty {
		dirty[i] = 0xA5
	}
	for _, s := range spaces {
		for size := uint64(1); size <= 32<<10-8; size *= 2 {
			for round := 0; round < 3; round++ {
				a, err := s.h.Alloc(size)
				if err != nil {
					t.Fatalf("%s: Alloc(%d): %v", s.name, size, err)
				}
				if err := s.h.Write(a, dirty[:size]); err != nil {
					t.Fatalf("%s: Write: %v", s.name, err)
				}
				if err := s.h.Free(a); err != nil {
					t.Fatalf("%s: Free: %v", s.name, err)
				}
			}
		}
		if i := heap.ZeroBlockDirtyAt(); i >= 0 {
			t.Fatalf("%s space wrote byte %d of the shared zero block", s.name, i)
		}
	}
}
