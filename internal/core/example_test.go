package core_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/pagetable"
	"repro/internal/sim"
)

// Example shows the full file-only-memory flow: build a machine,
// allocate volatile memory as a file in O(1), use it, and reclaim it
// as a whole file. A 256 MiB and a 4 KiB allocation cost the same
// simulated time: each is one extent allocation, one O(1) epoch erase
// and one range-table insert, with no per-page work.
func Example() {
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	memory, err := mem.New(clock, &params, mem.Config{
		DRAMFrames: 64 << 20 >> mem.FrameShift,
		NVMFrames:  1 << 30 >> mem.FrameShift,
	})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.NewSystem(clock, &params, memory, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	p, err := sys.NewProcess(core.Ranges)
	if err != nil {
		log.Fatal(err)
	}

	const rw = pagetable.FlagRead | pagetable.FlagWrite | pagetable.FlagUser
	for _, a := range []struct {
		name  string
		bytes uint64
	}{{"256 MiB", 256 << 20}, {"4 KiB", 4 << 10}} {
		t0 := clock.Now()
		am, err := p.AllocVolatile(a.bytes>>mem.FrameShift, rw)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("allocated+mapped %7s in %v (simulated)\n", a.name, clock.Since(t0))
		if err := p.Unmap(am); err != nil {
			log.Fatal(err)
		}
	}

	m, err := p.AllocVolatile(1024, rw) // 4 MiB, one extent, O(1)
	if err != nil {
		log.Fatal(err)
	}
	if err := p.WriteBuf(m.Base(), []byte("order-one")); err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, 9)
	if err := p.ReadBuf(m.Base(), buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s, extents=%d, contiguous=%v\n", buf, len(m.Segments()), m.Contiguous())
	if err := p.Unmap(m); err != nil {
		log.Fatal(err)
	}
	// Output:
	// allocated+mapped 256 MiB in 8.140µs (simulated)
	// allocated+mapped   4 KiB in 8.700µs (simulated)
	// order-one, extents=1, contiguous=true
}

// ExampleSystem_Remount demonstrates crash recovery: persistent files
// survive, volatile memory does not.
func ExampleSystem_Remount() {
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	memory, _ := mem.New(clock, &params, mem.Config{
		DRAMFrames: 16 << 20 >> mem.FrameShift,
		NVMFrames:  256 << 20 >> mem.FrameShift,
	})
	sys, _ := core.NewSystem(clock, &params, memory, core.Options{})

	f, err := sys.CreateContiguousFile("/state", 16,
		memfs.CreateOptions{Durability: memfs.Persistent}, false)
	if err != nil {
		log.Fatal(err)
	}
	p, _ := sys.NewProcess(core.Ranges)
	m, _ := p.MapFile(f, pagetable.FlagRead|pagetable.FlagWrite|pagetable.FlagUser)
	if err := p.WriteBuf(m.Base(), []byte("durable")); err != nil {
		log.Fatal(err)
	}

	memory.Crash()
	dropped, _ := sys.Remount()

	g, err := sys.FS().Open("/state")
	if err != nil {
		log.Fatal(err)
	}
	p2, _ := sys.NewProcess(core.Ranges)
	m2, _ := p2.MapFile(g, pagetable.FlagRead|pagetable.FlagUser)
	buf := make([]byte, 7)
	if err := p2.ReadBuf(m2.Base(), buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered %q (volatile files dropped: %v)\n", buf, dropped >= 0)
	// Output: recovered "durable" (volatile files dropped: true)
}
