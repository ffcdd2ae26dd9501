// Package vm implements the baseline virtual-memory system the paper
// measures against: a Linux-like design with per-page bookkeeping.
//
// It provides address spaces built from VMAs, mmap with MAP_POPULATE or
// demand paging, a page-fault handler (minor and major faults),
// copy-on-write fork, per-frame metadata in the style of struct page,
// a two-list (active/inactive) reclaim scanner with second-chance
// referenced bits, and a swap device.
//
// Every operation charges the per-page costs the paper identifies:
// populating a mapping writes one PTE per page, faulting pays the trap
// overhead per page, reclaim scans pages one at a time. The contrast
// with package core (file-only memory), which performs the same jobs at
// file granularity, is the central comparison of the reproduction.
package vm

import (
	"fmt"

	"repro/internal/buddy"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/pagetable"
	"repro/internal/sim"
	"repro/internal/tier"
	"repro/internal/tlb"
)

// Kernel is the machine-global memory-management state shared by all
// address spaces: the anonymous-page pool, per-frame metadata, the LRU
// lists, the swap device, and the per-CPU TLBs of the machine it runs
// on. Clock is the machine's kernel clock; charges through it land on
// whichever CPU is currently executing (see Machine.SetCurrent).
type Kernel struct {
	Clock   *sim.Clock
	Params  *sim.Params
	Memory  *mem.Memory
	Machine *sim.Machine

	// tlbs[i] is CPU i's TLB. Address spaces scheduled on a CPU share
	// its TLB, with ASID-tagged entries.
	tlbs []*tlb.TLB

	// nextCPU round-robins new address spaces across CPUs.
	nextCPU int

	// pool allocates anonymous pages and page-table nodes (the DRAM
	// region in the default machine).
	pool *buddy.Allocator

	// slowPool, when configured, is a second anonymous-frame pool over
	// the slow tier (NVM): first-touch overflow and demotion target of
	// the tier engine. Nil in the classic single-tier configuration.
	slowPool *buddy.Allocator

	// tier is the attached migration engine (nil without tiering).
	tier *tier.Engine

	// meta is the global frame-metadata domain: struct-page table,
	// recycled records, and the LRU lists the reclaim scanner walks.
	// Frames inside a carved per-CPU arena live in that arena's domain
	// instead (see arena.go); domainOf routes by frame number.
	meta metaDomain

	// arenas holds the carved per-CPU arenas sorted by base frame
	// (empty unless CarveArenas has run); arenaByCPU indexes them by
	// CPU id.
	arenas     []*Arena
	arenaByCPU []*Arena

	// rmapScratch is evictPage's reusable reverse-map snapshot buffer.
	rmapScratch []rmapEntry

	// shards[i] registers the live address spaces created on CPU i, so
	// the invariant checker can audit the pagetable ↔ rmap bijection
	// machine-wide. ASIDs are striped by creation CPU (shard + N*index
	// + 1) and never reused, so a TLB entry whose ASID is absent here
	// is provably stale. Sharding makes registration CPU-local: a CPU
	// creating or destroying its own spaces during a host-parallel
	// phase touches only its shard and needs no sync point.
	shards []asidShard

	swap *SwapDevice

	// lowWater triggers reclaim when free frames drop below it.
	lowWater uint64

	// levels is the page-table depth for new address spaces.
	levels int

	stats *metrics.Set
	// Cached counters for the fault and reclaim hot paths.
	cMinorFaults, cAnonAllocs, cReclaimScans *metrics.Counter
}

// Config configures the kernel.
type Config struct {
	// PoolBase/PoolFrames locate the anonymous-memory pool.
	PoolBase   mem.Frame
	PoolFrames uint64
	// SlowPoolBase/SlowPoolFrames locate an optional second pool over
	// the slow tier (NVM) for tiered configurations. Zero frames means
	// no slow pool.
	SlowPoolBase   mem.Frame
	SlowPoolFrames uint64
	// LowWater is the free-frame threshold below which allocation
	// triggers reclaim. Zero means PoolFrames/32.
	LowWater uint64
	// SwapFrames bounds the swap device (0 = unlimited).
	SwapFrames uint64
	// PageTableLevels selects 4- or 5-level paging for new address
	// spaces (0 = 4, the x86-64 default; 5 enables 57-bit LA57-style
	// addressing at one extra walk reference per translation).
	PageTableLevels int
}

// NewKernel creates the global VM state. The machine is derived from
// clock: the kernel clock of a sim.Machine yields that machine's CPU
// set, while a free-standing clock models the classic single-CPU
// machine (see sim.MachineOf).
func NewKernel(clock *sim.Clock, params *sim.Params, memory *mem.Memory, cfg Config) (*Kernel, error) {
	if cfg.PoolFrames == 0 {
		return nil, fmt.Errorf("vm: empty page pool")
	}
	machine := sim.MachineOf(clock, params)
	pool, err := buddy.New(clock, params, cfg.PoolBase, cfg.PoolFrames)
	if err != nil {
		return nil, err
	}
	var slowPool *buddy.Allocator
	if cfg.SlowPoolFrames > 0 {
		slowPool, err = buddy.New(clock, params, cfg.SlowPoolBase, cfg.SlowPoolFrames)
		if err != nil {
			return nil, err
		}
	}
	low := cfg.LowWater
	if low == 0 {
		low = cfg.PoolFrames / 32
	}
	levels := cfg.PageTableLevels
	switch levels {
	case 0:
		levels = 4
	case 4, 5:
	default:
		return nil, fmt.Errorf("vm: unsupported page-table depth %d", levels)
	}
	// The global domain tracks every frame outside the arenas: pool
	// frames and the file pages memfs hands out anywhere in memory.
	span := max(memory.TotalFrames(), uint64(cfg.PoolBase)+cfg.PoolFrames,
		uint64(cfg.SlowPoolBase)+cfg.SlowPoolFrames)
	meta, err := newMetaDomain(pool, 0, span)
	if err != nil {
		return nil, err
	}
	k := &Kernel{
		Clock:    clock,
		Params:   params,
		Memory:   memory,
		Machine:  machine,
		levels:   levels,
		pool:     pool,
		slowPool: slowPool,
		meta:     meta,
		shards:   make([]asidShard, machine.NumCPUs()),
		swap:     newSwapDevice(cfg.SwapFrames),
		lowWater: low,
		stats:    metrics.NewSet(),
	}
	for i := range k.shards {
		k.shards[i].spaces = make(map[int]*AddressSpace)
	}
	k.cMinorFaults = k.stats.Counter("minor_faults")
	k.cAnonAllocs = k.stats.Counter("anon_allocs")
	k.cReclaimScans = k.stats.Counter("reclaim_scans")
	// Pre-create the remaining kernel counters so the set's first-use
	// order never depends on which CPU context records an event first
	// during a host-parallel phase.
	for _, name := range []string{
		"major_faults", "cow_breaks", "swapouts", "swapins",
		"reclaimed_pages", "user_faults", "forks", "tier_migrations",
	} {
		k.stats.Counter(name)
	}
	for _, cpu := range machine.CPUs() {
		k.tlbs = append(k.tlbs, tlb.New(cpu, params, tlb.DefaultConfig()))
	}
	machine.RegisterInvariants("vm", k.CheckInvariants)
	machine.RegisterStats("vm", k.stats)
	return k, nil
}

// asidShard is one CPU's slice of the live address-space registry.
// The owning CPU mutates it without synchronization; other CPUs only
// read it outside parallel phases (invariant checks, recovery).
type asidShard struct {
	next   int                   // spaces created on this shard so far
	spaces map[int]*AddressSpace // live spaces by ASID
}

// registerSpace assigns a the next ASID of its home CPU's shard and
// registers it. The striped formula (shard + N*index + 1) reproduces
// the old single-counter assignment exactly for round-robin creation
// order — space j lands on CPU j%N and receives ASID j+1 — while
// letting each CPU register without touching shared state.
func (k *Kernel) registerSpace(a *AddressSpace) {
	sh := &k.shards[a.cpu.ID()]
	a.asid = a.cpu.ID() + len(k.shards)*sh.next + 1
	sh.next++
	sh.spaces[a.asid] = a
}

// space returns the live address space registered under asid.
func (k *Kernel) space(asid int) (*AddressSpace, bool) {
	if asid < 1 {
		return nil, false
	}
	a, ok := k.shards[(asid-1)%len(k.shards)].spaces[asid]
	return a, ok
}

// eachSpace calls fn for every live address space, shard by shard.
func (k *Kernel) eachSpace(fn func(asid int, as *AddressSpace) error) error {
	for i := range k.shards {
		for asid, as := range k.shards[i].spaces {
			if err := fn(asid, as); err != nil {
				return err
			}
		}
	}
	return nil
}

// TLBFor returns the TLB of the given CPU.
func (k *Kernel) TLBFor(cpu *sim.CPU) *tlb.TLB { return k.tlbs[cpu.ID()] }

// Stats exposes kernel counters: "minor_faults", "major_faults",
// "cow_breaks", "swapouts", "swapins", "reclaim_scans",
// "reclaimed_pages", "anon_allocs".
func (k *Kernel) Stats() *metrics.Set { return k.stats }

// FreePoolFrames returns the free frames in the anonymous pool.
func (k *Kernel) FreePoolFrames() uint64 { return k.pool.FreeFrames() }

// Pool exposes the kernel's frame allocator (page tables allocate
// their nodes from it).
func (k *Kernel) Pool() *buddy.Allocator { return k.pool }

// TablePool returns the page-table node pool over Pool(): tables built
// outside an address space draw their nodes through it.
func (k *Kernel) TablePool() *pagetable.Pool { return k.meta.ptNodes }

// TrackedPages returns the number of frames with live metadata — the
// per-page bookkeeping footprint the paper wants to eliminate —
// summed over the global domain and every arena.
func (k *Kernel) TrackedPages() int {
	n := k.meta.live
	for _, ar := range k.arenas {
		n += ar.meta.live
	}
	return n
}

// MetadataBytes returns the simulated size of per-page metadata, using
// the 64-byte struct page the paper's motivation cites.
func (k *Kernel) MetadataBytes() uint64 { return uint64(k.TrackedPages()) * 64 }

// allocAnonFrame allocates and zeroes one anonymous frame for cur,
// reclaiming under pressure. This is the per-fault allocation path.
// With a non-nil arena the frame comes from the arena's private pool
// and exhaustion is a hard error: arenas have no reclaim trigger,
// because reclaim unmaps other CPUs' address spaces — exactly the
// cross-CPU activity a host-parallel phase forbids.
func (k *Kernel) allocAnonFrame(cur *sim.CPU, ar *Arena) (mem.Frame, error) {
	if ar != nil {
		f, err := ar.pool.AllocFrame()
		if err != nil {
			return 0, fmt.Errorf("vm: cpu %d arena out of memory: %w", ar.cpu.ID(), err)
		}
		k.Memory.ZeroFramesOn(cur, f, 1)
		k.cAnonAllocs.Inc()
		return f, nil
	}
	// Tiered first-touch placement: once the engine's fast-tier budget
	// is spent, new anonymous frames land in the slow pool (and the
	// demote/smart policies open fast room back up over time). The
	// fast pool + reclaim path below remains the fallback when the
	// slow tier is itself exhausted.
	if k.tier != nil && k.slowPool != nil && !k.tier.PreferFast() {
		if f, err := k.slowPool.AllocFrame(); err == nil {
			k.Memory.ZeroFramesOn(cur, f, 1)
			k.cAnonAllocs.Inc()
			return f, nil
		}
	}
	if k.pool.FreeFrames() < k.lowWater {
		// Background reclaim would run here; the simulator reclaims
		// synchronously, like direct reclaim under pressure.
		if _, err := k.ReclaimPages(cur, k.lowWater); err != nil {
			return 0, err
		}
	}
	f, err := k.pool.AllocFrame()
	if err != nil {
		// Last resort: hard reclaim then retry once.
		if _, rerr := k.ReclaimPages(cur, 1); rerr != nil {
			return 0, fmt.Errorf("vm: out of memory: %v (reclaim: %v)", err, rerr)
		}
		f, err = k.pool.AllocFrame()
		if err != nil {
			return 0, fmt.Errorf("vm: out of memory: %w", err)
		}
	}
	k.Memory.ZeroFramesOn(cur, f, 1)
	k.cAnonAllocs.Inc()
	return f, nil
}

// freeAnonFrame returns an anonymous frame to the pool that owns it.
func (k *Kernel) freeAnonFrame(f mem.Frame) error {
	return k.poolFor(f).Free(f)
}

// chargeMeta charges n struct-page updates to cur's own clock.
func (k *Kernel) chargeMeta(cur *sim.CPU, n int) {
	cur.Clock().Advance(sim.Time(n) * k.Params.PageMetaOp)
}
