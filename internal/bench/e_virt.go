package bench

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/pagetable"
	"repro/internal/vm"
)

func init() {
	register(Experiment{
		ID:    "walkdepth",
		Title: "translation depth: 4/5-level native, virtualized (2D), and range walks",
		Paper: "§2 motivation: 5-level paging 'requires up to 35 memory references in virtualized systems'",
		Run:   walkDepth,
	})
	register(Experiment{
		ID:    "pinning",
		Title: "pinning memory for device access: per-page mlock vs implicit file pinning",
		Paper: "§3.1/§4.1 memory locking",
		Run:   pinning,
	})
}

func walkDepth() (*Result, error) {
	m, err := NewMachine()
	if err != nil {
		return nil, err
	}
	table := metrics.NewTable(
		"memory references per TLB-missing translation",
		"configuration", "refs", "walk_ns")
	ref := float64(m.Params.WalkLevelRef)
	rows := []struct {
		name string
		refs int
	}{
		{"native 4-level", 4},
		{"native 5-level", 5},
		{"virtualized 4-on-4", pagetable.NestedWalkRefs(pagetable.Levels4, pagetable.Levels4)},
		{"virtualized 5-on-5", pagetable.NestedWalkRefs(pagetable.Levels5, pagetable.Levels5)},
		{"range table (any size)", 1},
	}
	for _, r := range rows {
		table.AddRow(r.name, fmt.Sprint(r.refs), fmt.Sprintf("%.0f", float64(r.refs)*ref))
	}

	// Cross-check the native depths against real walks through real
	// tables (the model must agree with the mechanism).
	check := metrics.NewTable(
		"measured walk depth (real simulated tables)",
		"levels", "walk_levels_touched")
	cpu := m.Sim.BootCPU()
	for _, levels := range []int{pagetable.Levels4, pagetable.Levels5} {
		pt, err := pagetable.New(cpu, m.Params, m.Kernel.TablePool(), levels)
		if err != nil {
			return nil, err
		}
		if err := pt.Map(cpu, 0x1000, 42, rw); err != nil {
			return nil, err
		}
		_, _, touched, ok := pt.Walk(cpu, 0x1000)
		if !ok {
			return nil, fmt.Errorf("bench: walk failed")
		}
		check.AddRow(fmt.Sprint(levels), fmt.Sprint(touched))
		if err := pt.Destroy(); err != nil {
			return nil, err
		}
	}
	return &Result{
		ID:     "walkdepth",
		Title:  "translation depth",
		Paper:  "§2 motivation",
		Tables: []*metrics.Table{table, check},
		Notes: []string{
			"deeper tables and virtualization multiply walk cost (35 refs for 5-on-5, the paper's figure); a range translation resolves any size in one step",
		},
	}, nil
}

func pinning() (*Result, error) {
	m, err := NewMachine()
	if err != nil {
		return nil, err
	}
	table := metrics.NewTable(
		"pin a buffer for device access / DMA (µs, simulated)",
		"size_MB", "baseline_mlock_us", "fom_us")
	for _, mb := range []uint64{1, 16, 256} {
		pages := mb << 20 >> mem.FrameShift

		as, err := m.Kernel.NewAddressSpace()
		if err != nil {
			return nil, err
		}
		va, err := as.Mmap(vm.MmapRequest{Pages: pages, Prot: rw, Anon: true})
		if err != nil {
			return nil, err
		}
		// mlock populates and flags every page.
		baseT, err := timeOp(m.Clock, func() error { return as.Mlock(va) })
		if err != nil {
			return nil, err
		}
		if err := as.Destroy(); err != nil {
			return nil, err
		}

		// File-only memory: "data is implicitly pinned in memory, as
		// pages are never reclaimed or relocated until the file is
		// explicitly unmapped" — pinning is free; we charge a single
		// syscall to register the buffer with the device.
		fomT := m.Params.SyscallOverhead
		m.Clock.Advance(fomT)

		table.AddRow(fmt.Sprint(mb), us(baseT), us(fomT))
	}
	return &Result{
		ID:     "pinning",
		Title:  "memory pinning",
		Paper:  "§3.1/§4.1 memory locking",
		Tables: []*metrics.Table{table},
		Notes: []string{
			"baseline mlock walks every page (populate + flag); in file-only memory mappings never move, so a buffer of any size is DMA-safe for one syscall",
		},
	}, nil
}
