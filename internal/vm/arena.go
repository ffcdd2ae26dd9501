package vm

import (
	"fmt"
	"sort"

	"repro/internal/buddy"
	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/sim"
)

// metaDomain is one frame-metadata domain: a struct-page table, the
// recycled-record pool, the page-table node pool of the domain's
// allocator, and a pair of LRU lists. The kernel owns the
// global domain; each carved per-CPU arena owns its own, so parallel
// CPU contexts never share metadata structures — frames are routed to
// a domain by number (Kernel.domainOf).
type metaDomain struct {
	// pages holds the struct-page analogue for tracked frames, over
	// the frames the domain owns; live counts its entries.
	pages mem.FrameTable[*PageInfo]
	live  int

	// sparePages recycles PageInfo records, slab-style: fault-heavy
	// experiments track and forget millions of frames, and a fresh host
	// allocation per fault (record plus rmap array) dominated the
	// profile. Recycled records keep their rmap capacity.
	sparePages []*PageInfo

	// ptNodes supplies the page-table nodes of every address space
	// drawing its tables from this domain's allocator, so a tenant's
	// table reuses the node structs of the tenants before it.
	ptNodes *pagetable.Pool

	// Two-list reclaim state. The global scanner only walks the global
	// domain's lists; arena lists exist so arena-backed pages pay the
	// same per-page LRU bookkeeping cost as pool-backed ones.
	active   *pageList
	inactive *pageList
}

// newMetaDomain returns an empty domain for the frames [base,
// base+count), drawing page-table nodes from pool.
func newMetaDomain(pool *buddy.Allocator, base mem.Frame, count uint64) (metaDomain, error) {
	pages, err := mem.NewFrameTable[*PageInfo](base, count)
	if err != nil {
		return metaDomain{}, fmt.Errorf("vm: metadata domain: %w", err)
	}
	return metaDomain{
		pages:    pages,
		ptNodes:  pagetable.NewPool(pool),
		active:   newPageList(),
		inactive: newPageList(),
	}, nil
}

// put files p as f's metadata; f must have none.
func (d *metaDomain) put(f mem.Frame, p *PageInfo) {
	d.pages.Set(f, p)
	d.live++
}

// drop removes f's metadata.
func (d *metaDomain) drop(f mem.Frame) {
	d.pages.Set(f, nil)
	d.live--
}

// Arena is one CPU's private frame arena: a contiguous run carved out
// of the kernel's global pool whose buddy allocator charges the owning
// CPU's own (non-forwarding) clock, plus a private metadata domain.
// Address spaces homed on a CPU with a carved arena draw page-table
// nodes and anonymous frames from it, so the per-page hot paths of a
// host-parallel phase touch no cross-CPU state: each CPU allocates,
// zeroes, tracks, and frees only frames it owns.
//
// Arena allocation failures are hard errors — there is no reclaim
// trigger inside an arena. Reclaim is a cross-CPU activity by nature
// (it unmaps other address spaces); arenas exist precisely for the
// phase windows where that is forbidden.
type Arena struct {
	kernel *Kernel
	cpu    *sim.CPU
	base   mem.Frame
	frames uint64
	pool   *buddy.Allocator
	meta   metaDomain
}

// CarveArenas splits off one arena of framesPerCPU frames per CPU from
// the kernel's global pool. It must run outside any parallel phase
// (the carving itself charges the global pool's forwarding clock), and
// before the address spaces that should use the arenas are created:
// NewAddressSpaceOn homes an address space on its CPU's arena when one
// exists. Carving twice without ReleaseArenas is an error.
func (k *Kernel) CarveArenas(framesPerCPU uint64) error {
	if len(k.arenas) != 0 {
		return fmt.Errorf("vm: arenas already carved")
	}
	if framesPerCPU == 0 {
		return fmt.Errorf("vm: zero-size arena")
	}
	cpus := k.Machine.CPUs()
	arenas := make([]*Arena, 0, len(cpus))
	undo := func() {
		for _, ar := range arenas {
			_ = k.pool.FreeRun(buddy.Run{Start: ar.base, Count: ar.frames})
		}
	}
	for _, cpu := range cpus {
		run, err := k.pool.AllocRun(framesPerCPU)
		if err != nil {
			undo()
			return fmt.Errorf("vm: carving cpu %d arena: %w", cpu.ID(), err)
		}
		pool, err := buddy.New(cpu.Clock(), k.Params, run.Start, run.Count)
		if err != nil {
			undo()
			return fmt.Errorf("vm: cpu %d arena allocator: %w", cpu.ID(), err)
		}
		meta, err := newMetaDomain(pool, run.Start, run.Count)
		if err != nil {
			undo()
			return err
		}
		arenas = append(arenas, &Arena{
			kernel: k,
			cpu:    cpu,
			base:   run.Start,
			frames: run.Count,
			pool:   pool,
			meta:   meta,
		})
	}
	sort.Slice(arenas, func(i, j int) bool { return arenas[i].base < arenas[j].base })
	k.arenas = arenas
	k.arenaByCPU = make([]*Arena, len(cpus))
	for _, ar := range arenas {
		k.arenaByCPU[ar.cpu.ID()] = ar
	}
	return nil
}

// ReleaseArenas returns every arena's frames to the global pool. All
// arena-backed address spaces must have been destroyed first: an arena
// with tracked pages or live allocations (page-table nodes) refuses to
// release.
func (k *Kernel) ReleaseArenas() error {
	for _, ar := range k.arenas {
		if n := ar.meta.live; n != 0 {
			return fmt.Errorf("vm: cpu %d arena still tracks %d pages", ar.cpu.ID(), n)
		}
		if free := ar.pool.FreeFrames(); free != ar.frames {
			return fmt.Errorf("vm: cpu %d arena has %d frames still allocated", ar.cpu.ID(), ar.frames-free)
		}
	}
	for _, ar := range k.arenas {
		if err := k.pool.FreeRun(buddy.Run{Start: ar.base, Count: ar.frames}); err != nil {
			return err
		}
	}
	k.arenas = nil
	k.arenaByCPU = nil
	return nil
}

// ArenaFor returns cpu's carved arena, or nil when none exists.
func (k *Kernel) ArenaFor(cpu *sim.CPU) *Arena {
	if k.arenaByCPU == nil {
		return nil
	}
	return k.arenaByCPU[cpu.ID()]
}

// arenaOf routes a frame number to the arena containing it, or nil for
// the global pool. The common no-arena configuration short-circuits.
func (k *Kernel) arenaOf(f mem.Frame) *Arena {
	if len(k.arenas) == 0 {
		return nil
	}
	i := sort.Search(len(k.arenas), func(i int) bool {
		ar := k.arenas[i]
		return ar.base+mem.Frame(ar.frames) > f
	})
	if i < len(k.arenas) && f >= k.arenas[i].base {
		return k.arenas[i]
	}
	return nil
}

// domainOf returns the metadata domain owning frame f.
func (k *Kernel) domainOf(f mem.Frame) *metaDomain {
	if ar := k.arenaOf(f); ar != nil {
		return &ar.meta
	}
	return &k.meta
}

// poolFor returns the allocator owning frame f.
func (k *Kernel) poolFor(f mem.Frame) *buddy.Allocator {
	if ar := k.arenaOf(f); ar != nil {
		return ar.pool
	}
	if sp := k.slowPool; sp != nil && f >= sp.Base() && uint64(f-sp.Base()) < sp.Size() {
		return sp
	}
	return k.pool
}

// domains visits every metadata domain with a diagnostic label: the
// global one first, then arenas in base order.
func (k *Kernel) domains(fn func(label string, d *metaDomain, pool *buddy.Allocator) error) error {
	if err := fn("global", &k.meta, k.pool); err != nil {
		return err
	}
	for _, ar := range k.arenas {
		if err := fn(fmt.Sprintf("cpu %d arena", ar.cpu.ID()), &ar.meta, ar.pool); err != nil {
			return err
		}
	}
	return nil
}
