// Command o1sim runs a configurable workload on a chosen memory
// backend and prints timing, latency and event statistics — an
// interactive way to explore the simulator beyond the fixed paper
// experiments.
//
// With -cpus N the region splits into one contiguous sub-region per
// simulated CPU and the baseline backends run the touch phase on all
// CPU contexts; -hostpar additionally runs those contexts on real host
// goroutines (simulated numbers are identical either way). The
// file-only-memory backends are O(1) per operation and run on one CPU.
//
// Usage examples:
//
//	o1sim -backend baseline -pages 4096 -pattern random -touches 100000
//	o1sim -backend baseline -pages 262144 -cpus 8 -hostpar
//	o1sim -backend fom-sharedpt -pages 8192 -pattern hot-cold -writes
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/sim"
	"repro/internal/vm"
	"repro/internal/workload"
)

var patterns = map[string]workload.Pattern{
	"sequential": workload.Sequential,
	"strided":    workload.Strided,
	"random":     workload.Random,
	"hot-cold":   workload.HotCold,
}

func main() {
	backend := flag.String("backend", "baseline", "baseline | baseline-populate | fom-ranges | fom-sharedpt | all")
	pages := flag.Uint64("pages", 4096, "region size in 4 KiB pages")
	patName := flag.String("pattern", "sequential", "sequential | strided | random | hot-cold")
	touches := flag.Int("touches", 0, "number of touches (default: one per page)")
	stride := flag.Uint64("stride", 8, "stride for the strided pattern")
	writes := flag.Bool("writes", false, "touch with writes instead of reads")
	seed := flag.Uint64("seed", 42, "workload RNG seed")
	cpus := flag.Int("cpus", 1, "simulated CPU count (1 to 64)")
	hostpar := flag.Bool("hostpar", false, "run simulated CPU contexts on host goroutines (deterministic; simulated numbers unchanged)")
	flag.Parse()

	if err := bench.SetCPUs(*cpus); err != nil {
		fmt.Fprintln(os.Stderr, "o1sim:", err)
		os.Exit(2)
	}
	bench.SetHostParallel(*hostpar)

	backends := []string{*backend}
	if *backend == "all" {
		backends = []string{"baseline", "baseline-populate", "fom-ranges", "fom-sharedpt"}
	}
	for i, b := range backends {
		if i > 0 {
			fmt.Println()
		}
		if err := run(b, *pages, *patName, *touches, *stride, *writes, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "o1sim:", err)
			os.Exit(1)
		}
	}
}

func run(backend string, pages uint64, patName string, touches int, stride uint64, writes bool, seed uint64) error {
	pattern, ok := patterns[patName]
	if !ok {
		return fmt.Errorf("unknown pattern %q", patName)
	}
	if touches == 0 {
		touches = int(pages)
	}
	idx, err := workload.Touches(pattern, pages, touches, stride, seed)
	if err != nil {
		return err
	}
	m, err := bench.NewMachine()
	if err != nil {
		return err
	}
	const prot = pagetable.FlagRead | pagetable.FlagWrite | pagetable.FlagUser

	var allocCost, touchCost sim.Time
	lat := &workload.Latency{}
	var report func()

	switch backend {
	case "baseline", "baseline-populate":
		n := m.Sim.NumCPUs()
		shares := workload.Split(pages, n)
		parts := workload.Partition(idx, shares)
		if err := m.ShardPool(); err != nil {
			return err
		}
		spaces := make([]*vm.AddressSpace, n)
		vas := make([]mem.VirtAddr, n)
		m.Sim.Sync()
		t0 := m.Sim.Time()
		for i := range spaces {
			as, err := m.Kernel.NewAddressSpaceOn(m.Sim.CPU(i))
			if err != nil {
				return err
			}
			spaces[i] = as
			if shares[i] == 0 {
				continue
			}
			vas[i], err = as.Mmap(vm.MmapRequest{
				Pages: shares[i], Prot: prot, Anon: true, Private: true,
				Populate: backend == "baseline-populate",
			})
			if err != nil {
				return err
			}
		}
		m.Sim.Sync()
		allocCost = m.Sim.Time() - t0

		lats := make([]workload.Latency, n)
		t1 := m.Sim.Time()
		if err := m.Sim.RunParallel(func(c *sim.CPU) error {
			as, va, l := spaces[c.ID()], vas[c.ID()], &lats[c.ID()]
			clk := c.Clock()
			for _, p := range parts[c.ID()] {
				s := clk.Now()
				if err := as.Touch(va+mem.VirtAddr(p*mem.FrameSize), writes); err != nil {
					return err
				}
				l.Record(clk.Since(s))
			}
			return nil
		}); err != nil {
			return err
		}
		touchCost = m.Sim.Time() - t1
		for i := range lats {
			lat.Merge(&lats[i])
		}
		report = func() {
			fmt.Println("kernel:", m.Kernel.Stats())
			if n == 1 {
				fmt.Println("tlb:   ", spaces[0].TLB().Stats())
			} else {
				for i, as := range spaces {
					fmt.Printf("tlb[%d]: %s\n", i, as.TLB().Stats())
				}
			}
			mapped := uint64(0)
			for _, as := range spaces {
				mapped += as.MappedPages()
			}
			fmt.Printf("mapped pages: %d, tracked struct pages: %d (%d bytes)\n",
				mapped, m.Kernel.TrackedPages(), m.Kernel.MetadataBytes())
		}
	case "fom-ranges", "fom-sharedpt":
		mode := core.Ranges
		if backend == "fom-sharedpt" {
			mode = core.SharedPT
		}
		p, err := m.FOM.NewProcess(mode)
		if err != nil {
			return err
		}
		allocStart := m.Clock.Now()
		mp, err := p.AllocVolatile(pages, prot)
		if err != nil {
			return err
		}
		allocCost = m.Clock.Since(allocStart)
		touchStart := m.Clock.Now()
		for _, pg := range idx {
			s := m.Clock.Now()
			if err := p.Touch(mp.Base()+mem.VirtAddr(pg*mem.FrameSize), writes); err != nil {
				return err
			}
			lat.Record(m.Clock.Since(s))
		}
		touchCost = m.Clock.Since(touchStart)
		report = func() {
			fmt.Println("system:", m.FOM.Stats())
			fmt.Println("proc:  ", p.Stats())
			if mode == core.Ranges {
				fmt.Println("rtlb:  ", p.RTLB().Stats())
				fmt.Printf("range-table entries: %d\n", p.RangeTable().Len())
			} else {
				fmt.Println("tlb:   ", p.TLB().Stats())
			}
			fmt.Printf("file extents: %d\n", len(mp.File().Inode().Extents()))
		}
	default:
		return fmt.Errorf("unknown backend %q", backend)
	}

	fmt.Printf("backend=%s pages=%d (%d KB) pattern=%s touches=%d writes=%v\n",
		backend, pages, pages*4, patName, touches, writes)
	fmt.Printf("alloc+map: %v\n", allocCost)
	fmt.Printf("touch:     %v total, %.1f ns/touch\n", touchCost,
		float64(touchCost)/float64(touches))
	fmt.Printf("touch latency (ns, simulated): %v\n", lat)
	fmt.Printf("virtual time elapsed: %v (machine-wide, %d CPUs)\n", sim.Time(m.Sim.Time()), m.Sim.NumCPUs())
	report()
	return nil
}
