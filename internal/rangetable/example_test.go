package rangetable_test

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/rangetable"
	"repro/internal/sim"
)

// Example shows a single range entry mapping a gigabyte: insertion,
// lookup, and removal are all one-entry operations regardless of size.
func Example() {
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	tbl := rangetable.New(clock, &params)

	gig := rangetable.Entry{
		VBase: 0x4000_0000_0000,
		Pages: 1 << 18, // 1 GiB
		PBase: 0x1000,
		Flags: pagetable.FlagRead | pagetable.FlagWrite,
	}
	if err := tbl.Insert(gig); err != nil {
		fmt.Println(err)
		return
	}
	e, ok := tbl.Lookup(gig.VBase + 512<<20) // halfway in
	fmt.Printf("hit=%v entries=%d pa=%#x\n", ok, len(tbl.Entries()), uint64(e.Translate(gig.VBase+512<<20)))

	removed, _ := tbl.Remove(gig.VBase)
	fmt.Printf("removed %d pages with one operation\n", removed.Pages)
	// Output:
	// hit=true entries=1 pa=0x21000000
	// removed 262144 pages with one operation
}

// ExampleRTLB shows the range TLB covering sparse accesses over a huge
// region with a single cached entry.
func ExampleRTLB() {
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	cpu := sim.MachineOf(clock, &params).BootCPU()
	rtlb := rangetable.NewRTLB(cpu, &params, 8)

	rtlb.Insert(0, rangetable.Entry{VBase: 0, Pages: 1 << 18, PBase: 0})
	hits := 0
	for i := 0; i < 1000; i++ {
		va := mem.VirtAddr(i*104729%(1<<18)) * mem.FrameSize
		if _, ok := rtlb.Lookup(0, va); ok {
			hits++
		}
	}
	fmt.Printf("hits=%d/1000 with %d cached entry\n", hits, rtlb.ValidEntries())
	// Output: hits=1000/1000 with 1 cached entry
}
