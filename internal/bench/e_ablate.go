package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/metrics"
	"repro/internal/pagetable"
	"repro/internal/slab"
	"repro/internal/tlb"
)

func init() {
	register(Experiment{
		ID:    "ablate-pt",
		Title: "ablation: pre-created page tables (first map builds, later maps link)",
		Paper: "§3.1 'pre-created page tables can be stored persistently'",
		Run:   ablatePT,
	})
	register(Experiment{
		ID:    "ablate-huge",
		Title: "ablation: page size (4K / 2M / 1G) for a 256 MiB mapping",
		Paper: "§3 page-size discussion (alignment restrictions, TLB reach)",
		Run:   ablateHuge,
	})
	register(Experiment{
		ID:    "ablate-slab",
		Title: "ablation: slab cache vs raw buddy for fixed-size kernel objects",
		Paper: "§3.1 'using techniques from heaps, such as slab allocators'",
		Run:   ablateSlab,
	})
	register(Experiment{
		ID:    "ablate-extent",
		Title: "ablation: per-page (tmpfs) vs extent (PMFS) file allocation",
		Paper: "§3.1/§4.1 extent argument",
		Run:   ablateExtent,
	})
}

func ablatePT() (*Result, error) {
	m, err := NewMachine()
	if err != nil {
		return nil, err
	}
	table := metrics.NewTable(
		"map a 64 MiB file in successive processes, SharedPT mode (µs, simulated)",
		"process", "map_us")
	pages := uint64(64) << 20 >> mem.FrameShift
	f, err := m.FOM.CreateContiguousFile("/lib", pages, memfs.CreateOptions{Durability: memfs.Persistent}, true)
	if err != nil {
		return nil, err
	}
	for i := 1; i <= 4; i++ {
		p, err := m.FOM.NewProcess(core.SharedPT)
		if err != nil {
			return nil, err
		}
		cost, err := timeOp(m.Clock, func() error {
			_, e := p.MapFile(f, ro)
			return e
		})
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("P%d", i)
		if i == 1 {
			label += " (builds chunks)"
		}
		table.AddRow(label, us(cost))
	}
	chunks := m.FOM.Stats().Value("chunk_builds")
	links := m.FOM.Stats().Value("chunk_links")
	return &Result{
		ID:     "ablate-pt",
		Title:  "pre-created page tables",
		Paper:  "§3.1",
		Tables: []*metrics.Table{table},
		Notes: []string{
			fmt.Sprintf("%d chunks built exactly once, then %d links reused them; with persistent tables even the first map after a reboot would be links-only", chunks, links),
		},
	}, nil
}

func ablateHuge() (*Result, error) {
	m, err := NewMachine()
	if err != nil {
		return nil, err
	}
	const totalPages = uint64(256) << 20 >> mem.FrameShift // 256 MiB
	table := metrics.NewTable(
		"map and touch 256 MiB with each page size (simulated)",
		"page_size", "entries", "map_us", "touch_all_us", "tlb_misses")

	// Use the first 1 GiB-aligned frame of NVM as the physical target
	// (the mappings are installed directly, bypassing the allocators —
	// this ablation measures translation machinery only).
	nvm, _ := m.Memory.Region(mem.NVM)
	base := mem.Frame((uint64(nvm.Start) + mem.HugeFrames1G - 1) &^ uint64(mem.HugeFrames1G-1))
	if !m.Memory.Valid(base, mem.HugeFrames1G) {
		return nil, fmt.Errorf("bench: aligned base out of range")
	}

	cpu := m.Sim.BootCPU()
	for _, size := range []tlb.PageSize{tlb.Size4K, tlb.Size2M, tlb.Size1G} {
		pt, err := pagetable.New(cpu, m.Params, m.Kernel.TablePool(), pagetable.Levels4)
		if err != nil {
			return nil, err
		}
		tl := tlb.New(cpu, m.Params, tlb.DefaultConfig())
		va := mem.VirtAddr(1) << 39 // 512 GiB: 1 GiB aligned
		step := size.Frames()
		entries := totalPages / step
		if entries == 0 {
			entries = 1
		}
		mapCost, err := timeOp(m.Clock, func() error {
			for i := uint64(0); i < entries; i++ {
				v := va + mem.VirtAddr(i*step*mem.FrameSize)
				fr := base + mem.Frame(i*step)
				var e error
				switch size {
				case tlb.Size4K:
					e = pt.Map(cpu, v, fr, rw)
				case tlb.Size2M:
					e = pt.Map2M(cpu, v, fr, rw)
				default:
					e = pt.Map1G(cpu, v, fr, rw)
				}
				if e != nil {
					return e
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		// Touch one byte per 4K page through the TLB + walk path.
		touchCost, err := timeOp(m.Clock, func() error {
			for p := uint64(0); p < totalPages; p += 16 { // sample every 64 KiB
				v := va + mem.VirtAddr(p*mem.FrameSize)
				if _, hit := tl.Lookup(0, v); !hit {
					pa, flags, _, ok := pt.Walk(cpu, v)
					if !ok {
						return fmt.Errorf("bench: walk failed at %#x", uint64(v))
					}
					_ = pa
					tl.Insert(0, v, tlb.Translation{Frame: (base + mem.Frame(p/step*step)), Size: size, Flags: flags})
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		table.AddRow(size.String(), fmt.Sprint(entries), us(mapCost), us(touchCost),
			fmt.Sprint(tl.Stats().Value("misses")))
		if err := pt.Destroy(); err != nil {
			return nil, err
		}
	}
	return &Result{
		ID:     "ablate-huge",
		Title:  "page-size ablation",
		Paper:  "§3",
		Tables: []*metrics.Table{table},
		Notes: []string{
			"larger pages cut both mapping entries and TLB misses by the size ratio, but require aligned contiguous physical memory — which file-only memory's extents provide",
		},
	}, nil
}

func ablateSlab() (*Result, error) {
	m, err := NewMachine()
	if err != nil {
		return nil, err
	}
	const objs = 20000
	table := metrics.NewTable(
		fmt.Sprintf("allocate+free %d 64-byte kernel objects (µs, simulated)", objs),
		"allocator", "total_us", "ns_per_object")

	// Slab: objects share frames.
	cache, err := slab.NewCache("bench", 64, m.Clock, m.Params, m.Kernel.Pool())
	if err != nil {
		return nil, err
	}
	slabT, err := timeOp(m.Clock, func() error {
		addrs := make([]mem.PhysAddr, 0, objs)
		for i := 0; i < objs; i++ {
			a, e := cache.Alloc()
			if e != nil {
				return e
			}
			addrs = append(addrs, a)
		}
		for _, a := range addrs {
			if e := cache.Free(a); e != nil {
				return e
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	table.AddRow("slab (64B objects)", us(slabT), fmt.Sprintf("%.0f", float64(slabT)/(2*objs)))

	// Raw buddy: one 4 KiB frame per object (what naive per-object
	// page allocation costs).
	bud := m.Kernel.Pool()
	buddyT, err := timeOp(m.Clock, func() error {
		frames := make([]mem.Frame, 0, objs)
		for i := 0; i < objs; i++ {
			f, e := bud.AllocFrame()
			if e != nil {
				return e
			}
			frames = append(frames, f)
		}
		for _, f := range frames {
			if e := bud.Free(f); e != nil {
				return e
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	table.AddRow("buddy (frame per object)", us(buddyT), fmt.Sprintf("%.0f", float64(buddyT)/(2*objs)))
	return &Result{
		ID:     "ablate-slab",
		Title:  "slab vs buddy",
		Paper:  "§3.1",
		Tables: []*metrics.Table{table},
		Notes: []string{
			"slab caches amortize frame allocation across objects (and use 64x less memory here), supporting the paper's suggestion to manage physical memory with heap techniques",
		},
	}, nil
}

func ablateExtent() (*Result, error) {
	m, err := NewMachine()
	if err != nil {
		return nil, err
	}
	const pages = 4096 // 16 MiB
	table := metrics.NewTable(
		"fully allocate a 16 MiB file (simulated)",
		"fs_policy", "alloc_us", "extents")

	tf, err := m.Tmpfs.Create("/ab-extent", memfs.CreateOptions{})
	if err != nil {
		return nil, err
	}
	if err := tf.Truncate(pages * mem.FrameSize); err != nil {
		return nil, err
	}
	tmpfsT, err := timeOp(m.Clock, func() error {
		for p := uint64(0); p < pages; p++ {
			if _, _, e := tf.PageFrame(p, true); e != nil {
				return e
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	table.AddRow("tmpfs per-page", us(tmpfsT), fmt.Sprint(len(tf.Inode().Extents())))

	pf, err := m.Pmfs.Create("/ab-extent", memfs.CreateOptions{})
	if err != nil {
		return nil, err
	}
	pmfsT, err := timeOp(m.Clock, func() error {
		return pf.Truncate(pages * mem.FrameSize)
	})
	if err != nil {
		return nil, err
	}
	table.AddRow("pmfs extent", us(pmfsT), fmt.Sprint(len(pf.Inode().Extents())))

	fomF, err := m.FOM.FS().CreateTemp("ab", memfs.CreateOptions{})
	if err != nil {
		return nil, err
	}
	fomT, err := timeOp(m.Clock, func() error {
		return fomF.EnsureContiguous(pages)
	})
	if err != nil {
		return nil, err
	}
	table.AddRow("fom single extent + epoch zero", us(fomT), fmt.Sprint(len(fomF.Inode().Extents())))

	return &Result{
		ID:     "ablate-extent",
		Title:  "per-page vs extent allocation",
		Paper:  "§3.1/§4.1",
		Tables: []*metrics.Table{table},
		Notes: []string{
			"per-page allocation does 4096 small operations; extent allocation does one (plus zeroing, which the epoch mechanism also removes in the fom row)",
		},
	}, nil
}
