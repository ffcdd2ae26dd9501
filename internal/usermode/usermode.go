// Package usermode is the fifth memory-management configuration:
// user-mode software-managed physical memory, after Cichlid's explicit
// extent grants and Zagieboylo's software-based MM without virtual
// memory (PAPERS.md). A kernel-side grant table hands each process
// batches of physical extents up front; the process runs its own
// allocator (internal/heap via the Space interface) over those extents
// with no per-page kernel transitions. There is no translation
// hardware in this world: addresses are identity-mapped (VA == PA) and
// every access pays a software bounds check instead of a page walk.
//
// Faults (grant refills), reclaim (grant revocation), pinning, and
// shared-segment setup are queue operations on a user↔kernel
// shared-memory ring — a submit and a completion reap, each costing
// sim.Params.UQueueOp, plus sim.Params.GrantInstall per grant-table
// update. No path in this package ever charges a syscall or mode
// switch; the kernel_transitions counter exists to prove it stays 0.
//
// The grant table is also a tier.Backend: a whole granted extent can
// migrate between pools (DRAM↔NVM) cooperatively — the process learns
// new extent addresses through its relocation callback, the software
// analogue of a TLB shootdown. Processes without a callback have
// effectively pinned grants; migration declines them.
package usermode

import (
	"fmt"
	"sort"

	"repro/internal/buddy"
	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tier"
)

// DefaultBatchPages is the up-front grant batch when Config leaves
// BatchPages zero: 2 MiB of physical memory per refill.
const DefaultBatchPages = 512

// Config describes the physical pools a GrantTable manages. Pool is
// the primary (required) pool; Fast is an optional second pool in a
// faster region for tiering experiments. Frames in both pools must be
// valid in the backing Memory and must not overlap anything else.
type Config struct {
	PoolBase   mem.Frame
	PoolFrames uint64

	FastBase   mem.Frame
	FastFrames uint64

	// BatchPages is the minimum extent size of one grant refill
	// (DefaultBatchPages when zero).
	BatchPages uint64
}

// grant is one physical extent installed in a process's grant table.
// Extents are granted and revoked whole — there is no per-page path.
type grant struct {
	run    buddy.Run
	from   *buddy.Allocator
	pinned bool
}

func (g *grant) base() mem.VirtAddr { return mem.VirtAddr(g.run.Start.Addr()) }
func (g *grant) end() mem.Frame     { return g.run.End() }

// frameRun is a free run on a process's user-level free list,
// identity-addressed like everything in this world.
type frameRun struct {
	start mem.Frame
	pages uint64
}

func (r frameRun) end() mem.Frame { return r.start + mem.Frame(r.pages) }

// Extent is the user-visible record of one allocation carved from
// granted frames. It satisfies heap.Region.
type Extent struct {
	base  mem.VirtAddr
	pages uint64
}

// Base returns the extent's identity-mapped base address.
func (e *Extent) Base() mem.VirtAddr { return e.base }

// Pages returns the extent's length in pages.
func (e *Extent) Pages() uint64 { return e.pages }

// SharedSeg is a refcounted shared physical segment. All mappers see
// it at the same identity address, so sharing needs no translation.
type SharedSeg struct {
	run  buddy.Run
	from *buddy.Allocator
	refs int
}

// Base returns the segment's identity-mapped base address.
func (s *SharedSeg) Base() mem.VirtAddr { return mem.VirtAddr(s.run.Start.Addr()) }

// Pages returns the segment's length in pages.
func (s *SharedSeg) Pages() uint64 { return s.run.Count }

// GrantTable is the kernel side of the usermode world: the capability
// table recording which physical extents each process owns, plus the
// buddy pools they are granted from. It registers machine invariants
// (grant↔extent disjointness, heap↔grant containment, and the
// no-kernel-transition accounting) at construction.
type GrantTable struct {
	mach   *sim.Machine
	clock  *sim.Clock
	params *sim.Params
	memory *mem.Memory

	pool *buddy.Allocator // primary pool (required)
	fast *buddy.Allocator // optional faster pool

	batch uint64

	eng *tier.Engine

	procs  []*Process
	shared []*SharedSeg

	stats        *metrics.Set
	cSubmits     *metrics.Counter
	cCompletes   *metrics.Counter
	cInstalled   *metrics.Counter
	cRevoked     *metrics.Counter
	cTransitions *metrics.Counter // must stay 0: the whole point
	cMigrations  *metrics.Counter
}

// NewGrantTable builds the grant table and its pools on clock, and
// registers the usermode invariants and stats with the machine.
func NewGrantTable(clock *sim.Clock, params *sim.Params, memory *mem.Memory, cfg Config) (*GrantTable, error) {
	if cfg.PoolFrames == 0 {
		return nil, fmt.Errorf("usermode: config needs a primary pool")
	}
	if !memory.Valid(cfg.PoolBase, cfg.PoolFrames) {
		return nil, fmt.Errorf("usermode: pool [%d,+%d) not backed by memory", cfg.PoolBase, cfg.PoolFrames)
	}
	gt := &GrantTable{
		mach:   sim.MachineOf(clock, params),
		clock:  clock,
		params: params,
		memory: memory,
		batch:  cfg.BatchPages,
		stats:  metrics.NewSet(),
	}
	if gt.batch == 0 {
		gt.batch = DefaultBatchPages
	}
	var err error
	gt.pool, err = buddy.New(clock, params, cfg.PoolBase, cfg.PoolFrames)
	if err != nil {
		return nil, err
	}
	if cfg.FastFrames > 0 {
		if !memory.Valid(cfg.FastBase, cfg.FastFrames) {
			return nil, fmt.Errorf("usermode: fast pool [%d,+%d) not backed by memory", cfg.FastBase, cfg.FastFrames)
		}
		gt.fast, err = buddy.New(clock, params, cfg.FastBase, cfg.FastFrames)
		if err != nil {
			return nil, err
		}
	}
	gt.cSubmits = gt.stats.Counter("queue_submits")
	gt.cCompletes = gt.stats.Counter("queue_completes")
	gt.cInstalled = gt.stats.Counter("grants_installed")
	gt.cRevoked = gt.stats.Counter("grants_revoked")
	gt.cTransitions = gt.stats.Counter("kernel_transitions")
	gt.cMigrations = gt.stats.Counter("extent_migrations")
	gt.mach.RegisterStats("usermode", gt.stats)
	gt.mach.RegisterInvariants("usermode/grant-disjoint", gt.checkDisjoint)
	gt.mach.RegisterInvariants("usermode/heap-grant-containment", gt.checkContainment)
	gt.mach.RegisterInvariants("usermode/no-kernel-transitions", gt.checkNoTransitions)
	return gt, nil
}

// Stats exposes the grant-queue counters.
func (gt *GrantTable) Stats() *metrics.Set { return gt.stats }

// SetEngine attaches a tier-migration engine: granted frames are
// tracked for hotness, accesses feed its sampler, and the table
// becomes the engine's migration backend. Attach before any grants.
func (gt *GrantTable) SetEngine(eng *tier.Engine) {
	gt.eng = eng
	eng.SetBackend(gt)
}

// run points the forwarding kernel clock at the process's home CPU so
// buddy-pool charges land there (same idiom as core.Process.run).
func (gt *GrantTable) run(cpu *sim.CPU) {
	if gt.mach.FreeRunning() {
		return
	}
	gt.mach.SetCurrent(cpu)
}

// queueOp charges one submit/reap round trip on the grant queue — the
// usermode stand-in for what would otherwise be a syscall.
func (gt *GrantTable) queueOp(cpu *sim.CPU) {
	cpu.Advance(2 * gt.params.UQueueOp)
	gt.cSubmits.Inc()
	gt.cCompletes.Inc()
}

// Process is one user-mode address space: a sorted set of granted
// extents, a user-level free-run list over them, and the allocation
// records the bounds checker consults. It satisfies heap.Space, so a
// heap.Heap runs on it unmodified.
type Process struct {
	gt  *GrantTable
	cpu *sim.CPU

	grants   []*grant
	freeRuns []frameRun
	allocs   map[mem.VirtAddr]*Extent
	shared   []*SharedSeg

	// relocate, when set, is called after the kernel migrates one of
	// this process's extents: the cooperative pointer-update contract
	// that replaces TLB shootdown. Without it grants are effectively
	// pinned and migration declines them.
	relocate func(old, new mem.VirtAddr, pages uint64)
}

// NewProcessOn admits a process and installs its first grant batch up
// front (the Cichlid model: extents arrive in batches, not on faults).
func (gt *GrantTable) NewProcessOn(cpu *sim.CPU) (*Process, error) {
	p := &Process{
		gt:     gt,
		cpu:    cpu,
		allocs: make(map[mem.VirtAddr]*Extent),
	}
	gt.procs = append(gt.procs, p)
	if err := gt.refill(p, gt.batch); err != nil {
		return nil, err
	}
	return p, nil
}

// CPU returns the process's home CPU.
func (p *Process) CPU() *sim.CPU { return p.cpu }

// RunOn migrates the process to cpu: subsequent operations charge
// there. No shootdown mask exists in this world — there is nothing to
// invalidate.
func (p *Process) RunOn(cpu *sim.CPU) { p.cpu = cpu }

// SetRelocate registers the cooperative extent-relocation callback.
func (p *Process) SetRelocate(fn func(old, new mem.VirtAddr, pages uint64)) { p.relocate = fn }

// pickPool orders the pools for a new grant: the fast pool first while
// the tier policy wants first-touch placement there (or always, when
// no engine steers), then the primary pool.
func (gt *GrantTable) pickPool() []*buddy.Allocator {
	if gt.fast == nil {
		return []*buddy.Allocator{gt.pool}
	}
	if gt.eng == nil || gt.eng.PreferFast() {
		return []*buddy.Allocator{gt.fast, gt.pool}
	}
	return []*buddy.Allocator{gt.pool, gt.fast}
}

// refill grants the process one new extent of at least need pages: a
// queue round trip, a buddy run allocation, and a grant-table install.
// It asks for a full batch first and falls back to an exact-size run
// when the batched size cannot be carved contiguously.
func (gt *GrantTable) refill(p *Process, need uint64) error {
	want := need
	if want < gt.batch {
		want = gt.batch
	}
	gt.queueOp(p.cpu)
	gt.run(p.cpu)
	var run buddy.Run
	var from *buddy.Allocator
	var err error
	for _, pool := range gt.pickPool() {
		if run, err = pool.AllocRun(want); err == nil {
			from = pool
			break
		}
	}
	if from == nil && want > need {
		// Batched size unavailable: retry at exact size before giving up.
		for _, pool := range gt.pickPool() {
			if run, err = pool.AllocRun(need); err == nil {
				from = pool
				break
			}
		}
	}
	if from == nil {
		return fmt.Errorf("usermode: grant pool exhausted (want %d pages): %v", need, err)
	}
	g := &grant{run: run, from: from}
	p.insertGrant(g)
	p.insertFree(frameRun{start: run.Start, pages: run.Count})
	p.cpu.Advance(gt.params.GrantInstall)
	gt.cInstalled.Inc()
	gt.trackRun(run)
	return nil
}

func (p *Process) insertGrant(g *grant) {
	i := sort.Search(len(p.grants), func(i int) bool { return p.grants[i].run.Start > g.run.Start })
	p.grants = append(p.grants, nil)
	copy(p.grants[i+1:], p.grants[i:])
	p.grants[i] = g
}

// grantOf returns the extent containing frame f, or nil.
func (p *Process) grantOf(f mem.Frame) *grant {
	i := sort.Search(len(p.grants), func(i int) bool { return p.grants[i].end() > f })
	if i < len(p.grants) && p.grants[i].run.Start <= f {
		return p.grants[i]
	}
	return nil
}

// insertFree returns a run to the free list, coalescing with
// neighbours only within the same extent: allocations never span a
// grant boundary, which keeps revocation and migration whole-extent.
func (p *Process) insertFree(r frameRun) {
	i := sort.Search(len(p.freeRuns), func(i int) bool { return p.freeRuns[i].start > r.start })
	g := p.grantOf(r.start)
	if i > 0 {
		prev := &p.freeRuns[i-1]
		if prev.end() == r.start && p.grantOf(prev.start) == g {
			prev.pages += r.pages
			if i < len(p.freeRuns) && p.freeRuns[i].start == prev.end() && p.grantOf(p.freeRuns[i].start) == g {
				prev.pages += p.freeRuns[i].pages
				p.freeRuns = append(p.freeRuns[:i], p.freeRuns[i+1:]...)
			}
			return
		}
	}
	if i < len(p.freeRuns) && p.freeRuns[i].start == r.end() && p.grantOf(p.freeRuns[i].start) == g {
		p.freeRuns[i].start = r.start
		p.freeRuns[i].pages += r.pages
		return
	}
	p.freeRuns = append(p.freeRuns, frameRun{})
	copy(p.freeRuns[i+1:], p.freeRuns[i:])
	p.freeRuns[i] = r
}

// carve takes pages from the free list (first fit), charging one
// user-level allocator step per run examined. ok is false when no run
// is large enough.
func (p *Process) carve(pages uint64) (mem.Frame, bool) {
	steps := 0
	for i := range p.freeRuns {
		steps++
		if p.freeRuns[i].pages >= pages {
			start := p.freeRuns[i].start
			p.freeRuns[i].start += mem.Frame(pages)
			p.freeRuns[i].pages -= pages
			if p.freeRuns[i].pages == 0 {
				p.freeRuns = append(p.freeRuns[:i], p.freeRuns[i+1:]...)
			}
			p.cpu.Advance(sim.Time(steps) * p.gt.params.UserAllocOp)
			return start, true
		}
	}
	if steps == 0 {
		steps = 1
	}
	p.cpu.Advance(sim.Time(steps) * p.gt.params.UserAllocOp)
	return 0, false
}

// AllocPages allocates a contiguous identity-mapped run, refilling the
// grant table when the free list cannot satisfy it. Satisfies
// heap.Space: the heap's arenas and large objects come through here.
func (p *Process) AllocPages(pages uint64) (heap.Region, error) {
	if pages == 0 {
		return nil, fmt.Errorf("usermode: zero-page allocation")
	}
	start, ok := p.carve(pages)
	if !ok {
		if err := p.gt.refill(p, pages); err != nil {
			return nil, err
		}
		if start, ok = p.carve(pages); !ok {
			return nil, fmt.Errorf("usermode: refill did not cover %d pages", pages)
		}
	}
	e := &Extent{base: mem.VirtAddr(start.Addr()), pages: pages}
	p.allocs[e.base] = e
	// A fresh grant arrives epoch-erased; recycled runs are re-zeroed
	// here so AllocPages always returns zero memory, like AllocVolatile.
	p.gt.memory.ZeroFramesOn(p.cpu, start, pages)
	return e, nil
}

// FreeRegion returns an allocation to the user-level free list — no
// kernel involvement at all. Satisfies heap.Space.
func (p *Process) FreeRegion(r heap.Region) error {
	e, ok := r.(*Extent)
	if !ok {
		return fmt.Errorf("usermode: foreign region %T", r)
	}
	if p.allocs[e.base] != e {
		return fmt.Errorf("usermode: free of unallocated extent %#x", uint64(e.base))
	}
	delete(p.allocs, e.base)
	p.insertFree(frameRun{start: mem.PhysAddr(e.base).Frame(), pages: e.pages})
	p.cpu.Advance(p.gt.params.UserAllocOp)
	return nil
}

// covered reports whether the page of frame f is accessible to p: in
// one of its granted extents or mapped shared segments.
func (p *Process) covered(f mem.Frame) bool {
	if p.grantOf(f) != nil {
		return true
	}
	for _, s := range p.shared {
		if s.run.Start <= f && f < s.run.End() {
			return true
		}
	}
	return false
}

// access is the shared body of WriteBuf/ReadBuf: a software bounds
// check per operation plus a memory reference (and NVM penalty) per
// touched page, with accesses fed to the tier sampler.
func (p *Process) access(addr mem.VirtAddr, n uint64, write bool) error {
	if n == 0 {
		return nil
	}
	p.cpu.Advance(p.gt.params.UserAllocOp) // software bounds check
	first := mem.PhysAddr(addr).Frame()
	last := mem.PhysAddr(addr + mem.VirtAddr(n) - 1).Frame()
	for f := first; f <= last; f++ {
		if !p.covered(f) {
			return fmt.Errorf("usermode: access to ungranted frame %d (addr %#x)", f, uint64(addr))
		}
		cost := p.gt.params.MemRef
		if p.gt.memory.Kind(f) == mem.NVM {
			if write {
				cost += p.gt.params.NVMWritePenalty
			} else {
				cost += p.gt.params.NVMReadPenalty
			}
		}
		p.cpu.Advance(cost)
		if p.gt.eng != nil {
			p.gt.eng.Record(f, write)
		}
	}
	return nil
}

// WriteBuf stores data at an identity-mapped address. Satisfies
// heap.Space.
func (p *Process) WriteBuf(addr mem.VirtAddr, data []byte) error {
	if err := p.access(addr, uint64(len(data)), true); err != nil {
		return err
	}
	p.gt.memory.WriteAt(mem.PhysAddr(addr), data)
	return nil
}

// ReadBuf loads from an identity-mapped address. Satisfies heap.Space.
func (p *Process) ReadBuf(addr mem.VirtAddr, buf []byte) error {
	if err := p.access(addr, uint64(len(buf)), false); err != nil {
		return err
	}
	p.gt.memory.ReadAt(mem.PhysAddr(addr), buf)
	return nil
}

// Pin marks the extent containing addr unreclaimable and immovable
// (for pseudo-DMA): one queue round trip plus a table update.
func (p *Process) Pin(addr mem.VirtAddr) error {
	g := p.grantOf(mem.PhysAddr(addr).Frame())
	if g == nil {
		return fmt.Errorf("usermode: pin of ungranted address %#x", uint64(addr))
	}
	p.gt.queueOp(p.cpu)
	p.cpu.Advance(p.gt.params.GrantInstall)
	g.pinned = true
	return nil
}

// Unpin reverses Pin.
func (p *Process) Unpin(addr mem.VirtAddr) error {
	g := p.grantOf(mem.PhysAddr(addr).Frame())
	if g == nil {
		return fmt.Errorf("usermode: unpin of ungranted address %#x", uint64(addr))
	}
	p.gt.queueOp(p.cpu)
	p.cpu.Advance(p.gt.params.GrantInstall)
	g.pinned = false
	return nil
}

// Reclaim revokes every wholly-free unpinned extent back to its pool:
// one queue round trip for the batch, one table update per extent.
// Returns the number of extents revoked.
func (p *Process) Reclaim() (int, error) {
	p.gt.queueOp(p.cpu)
	p.gt.run(p.cpu)
	revoked := 0
	for i := 0; i < len(p.grants); {
		g := p.grants[i]
		if g.pinned || !p.whollyFree(g) {
			i++
			continue
		}
		p.removeFreeRun(g.run.Start, g.run.Count)
		p.grants = append(p.grants[:i], p.grants[i+1:]...)
		if err := g.from.FreeRun(g.run); err != nil {
			return revoked, err
		}
		p.cpu.Advance(p.gt.params.GrantInstall)
		p.gt.cRevoked.Inc()
		p.gt.untrackRun(g.run)
		revoked++
	}
	return revoked, nil
}

// whollyFree reports whether the extent is one uncut free run (no
// allocation inside it). Free runs never span extents, so a wholly
// free extent shows up as exactly one run covering it.
func (p *Process) whollyFree(g *grant) bool {
	for _, r := range p.freeRuns {
		if r.start == g.run.Start && r.pages == g.run.Count {
			return true
		}
		if r.start > g.run.Start {
			break
		}
	}
	return false
}

func (p *Process) removeFreeRun(start mem.Frame, pages uint64) {
	for i := range p.freeRuns {
		if p.freeRuns[i].start == start && p.freeRuns[i].pages == pages {
			p.freeRuns = append(p.freeRuns[:i], p.freeRuns[i+1:]...)
			return
		}
	}
}

// Exit tears the process down: every private extent is revoked and
// every shared segment unmapped.
func (p *Process) Exit() error {
	p.gt.queueOp(p.cpu)
	p.gt.run(p.cpu)
	for _, g := range p.grants {
		if err := g.from.FreeRun(g.run); err != nil {
			return err
		}
		p.cpu.Advance(p.gt.params.GrantInstall)
		p.gt.cRevoked.Inc()
		p.gt.untrackRun(g.run)
	}
	p.grants = nil
	p.freeRuns = nil
	p.allocs = make(map[mem.VirtAddr]*Extent)
	for len(p.shared) > 0 {
		if err := p.UnmapShared(p.shared[0]); err != nil {
			return err
		}
	}
	for i, q := range p.gt.procs {
		if q == p {
			p.gt.procs = append(p.gt.procs[:i], p.gt.procs[i+1:]...)
			break
		}
	}
	return nil
}

// NewShared allocates a shared segment and maps it into creator. Other
// processes join with MapShared; the segment is freed when the last
// mapper leaves.
func (gt *GrantTable) NewShared(creator *Process, pages uint64) (*SharedSeg, error) {
	if pages == 0 {
		return nil, fmt.Errorf("usermode: zero-page shared segment")
	}
	gt.queueOp(creator.cpu)
	gt.run(creator.cpu)
	var run buddy.Run
	var from *buddy.Allocator
	var err error
	for _, pool := range gt.pickPool() {
		if run, err = pool.AllocRun(pages); err == nil {
			from = pool
			break
		}
	}
	if from == nil {
		return nil, fmt.Errorf("usermode: shared pool exhausted (%d pages): %v", pages, err)
	}
	s := &SharedSeg{run: run, from: from, refs: 1}
	gt.shared = append(gt.shared, s)
	creator.shared = append(creator.shared, s)
	creator.cpu.Advance(gt.params.GrantInstall)
	gt.cInstalled.Inc()
	gt.memory.ZeroFramesOn(creator.cpu, run.Start, run.Count)
	return s, nil
}

// MapShared grants p access to an existing shared segment: a
// capability delegation through the queue, no page-grain work.
func (p *Process) MapShared(s *SharedSeg) error {
	for _, have := range p.shared {
		if have == s {
			return fmt.Errorf("usermode: segment %#x mapped twice", uint64(s.Base()))
		}
	}
	p.gt.queueOp(p.cpu)
	p.cpu.Advance(p.gt.params.GrantInstall)
	p.gt.cInstalled.Inc()
	s.refs++
	p.shared = append(p.shared, s)
	return nil
}

// UnmapShared revokes p's access; the last unmap frees the segment.
func (p *Process) UnmapShared(s *SharedSeg) error {
	found := false
	for i, have := range p.shared {
		if have == s {
			p.shared = append(p.shared[:i], p.shared[i+1:]...)
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("usermode: unmap of unmapped segment %#x", uint64(s.Base()))
	}
	p.gt.queueOp(p.cpu)
	p.cpu.Advance(p.gt.params.GrantInstall)
	p.gt.cRevoked.Inc()
	s.refs--
	if s.refs == 0 {
		p.gt.run(p.cpu)
		for i, have := range p.gt.shared {
			if have == s {
				p.gt.shared = append(p.gt.shared[:i], p.gt.shared[i+1:]...)
				break
			}
		}
		return s.from.FreeRun(s.run)
	}
	return nil
}

// trackRun/untrackRun keep the tier engine's frame set in step with
// the live grants. The engine suppresses these during its own
// migrations (it uses Moved instead), so calls are unconditional.
func (gt *GrantTable) trackRun(r buddy.Run) {
	if gt.eng == nil {
		return
	}
	for f := r.Start; f < r.End(); f++ {
		gt.eng.Track(f)
	}
}

func (gt *GrantTable) untrackRun(r buddy.Run) {
	if gt.eng == nil {
		return
	}
	for f := r.Start; f < r.End(); f++ {
		gt.eng.Untrack(f)
	}
}

// poolFor maps a region kind to the pool living in that kind, or nil.
func (gt *GrantTable) poolFor(kind mem.RegionKind) *buddy.Allocator {
	if gt.fast != nil && gt.memory.Kind(gt.fast.Base()) == kind {
		return gt.fast
	}
	if gt.memory.Kind(gt.pool.Base()) == kind {
		return gt.pool
	}
	return nil
}

// ownerOf finds the process and grant holding frame f.
func (gt *GrantTable) ownerOf(f mem.Frame) (*Process, *grant) {
	for _, p := range gt.procs {
		if g := p.grantOf(f); g != nil {
			return p, g
		}
	}
	return nil, nil
}

// MigrateFrame implements tier.Backend: it relocates the whole granted
// extent containing f into the pool of the target kind. The move is
// cooperative — the owner must have a relocation callback to learn the
// new addresses — and declines (a policy stall) for pinned extents,
// shared segments, callback-less owners, and full target pools.
func (gt *GrantTable) MigrateFrame(cur *sim.CPU, f mem.Frame, to mem.RegionKind) (uint64, bool) {
	p, g := gt.ownerOf(f)
	if g == nil || g.pinned || p.relocate == nil {
		return 0, false
	}
	target := gt.poolFor(to)
	if target == nil || target == g.from {
		return 0, false
	}
	run, err := target.AllocRun(g.run.Count)
	if err != nil {
		return 0, false
	}
	// Queue round trip to request the move, copy, then swap the grant:
	// revoke the old extent, install the new one.
	gt.queueOp(cur)
	gt.memory.CopyFramesOn(cur, run.Start, g.run.Start, g.run.Count)
	if gt.eng != nil {
		for i := uint64(0); i < g.run.Count; i++ {
			gt.eng.Moved(g.run.Start+mem.Frame(i), run.Start+mem.Frame(i))
		}
	}
	oldRun := g.run
	oldBase := g.base()
	g.run = run
	g.from = target
	sort.Slice(p.grants, func(i, j int) bool { return p.grants[i].run.Start < p.grants[j].run.Start })
	p.rebase(oldRun, run.Start)
	if err := oldRunFree(oldRun, gt, cur); err != nil {
		return 0, false
	}
	cur.Advance(2 * gt.params.GrantInstall)
	gt.cRevoked.Inc()
	gt.cInstalled.Inc()
	gt.cMigrations.Inc()
	p.relocate(oldBase, mem.VirtAddr(run.Start.Addr()), oldRun.Count)
	return oldRun.Count, true
}

// oldRunFree returns the vacated run to the pool it came from.
func oldRunFree(r buddy.Run, gt *GrantTable, cur *sim.CPU) error {
	var src *buddy.Allocator
	if gt.fast != nil && r.Start >= gt.fast.Base() && uint64(r.Start-gt.fast.Base()) < gt.fast.Size() {
		src = gt.fast
	} else {
		src = gt.pool
	}
	gt.run(cur)
	return src.FreeRun(r)
}

// rebase shifts the process's free runs and allocation records from a
// vacated extent to its new location.
func (p *Process) rebase(old buddy.Run, newStart mem.Frame) {
	delta := int64(newStart) - int64(old.Start)
	for i := range p.freeRuns {
		if p.freeRuns[i].start >= old.Start && p.freeRuns[i].end() <= old.End() {
			p.freeRuns[i].start = mem.Frame(int64(p.freeRuns[i].start) + delta)
		}
	}
	sort.Slice(p.freeRuns, func(i, j int) bool { return p.freeRuns[i].start < p.freeRuns[j].start })
	oldBase := mem.VirtAddr(old.Start.Addr())
	oldEnd := oldBase + mem.VirtAddr(old.Count*mem.FrameSize)
	byteDelta := delta * int64(mem.FrameSize)
	for base, e := range p.allocs {
		if base >= oldBase && base < oldEnd {
			delete(p.allocs, base)
			e.base = mem.VirtAddr(int64(e.base) + byteDelta)
			p.allocs[e.base] = e
		}
	}
}

// LiveExtents returns the grant table's size in entries: private
// extents plus one entry per process mapping each shared segment.
func (gt *GrantTable) LiveExtents() int {
	n := 0
	for _, s := range gt.shared {
		n += s.refs
	}
	for _, p := range gt.procs {
		n += len(p.grants)
	}
	return n
}

// checkDisjoint is the grant-table↔extent disjointness invariant:
// every granted extent and shared segment lies inside a pool, none
// overlap each other, none overlap pool free space, and the pools'
// internal structure is sound.
func (gt *GrantTable) checkDisjoint() error {
	type span struct {
		start mem.Frame
		count uint64
		what  string
	}
	var spans []span
	for _, p := range gt.procs {
		for _, g := range p.grants {
			spans = append(spans, span{g.run.Start, g.run.Count, "grant"})
		}
	}
	for _, s := range gt.shared {
		spans = append(spans, span{s.run.Start, s.run.Count, "shared"})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	for i, s := range spans {
		if !gt.pool.Contains(s.start, s.count) && (gt.fast == nil || !gt.fast.Contains(s.start, s.count)) {
			return fmt.Errorf("usermode: %s [%d,+%d) outside all pools", s.what, s.start, s.count)
		}
		if i > 0 {
			prev := spans[i-1]
			if prev.start+mem.Frame(prev.count) > s.start {
				return fmt.Errorf("usermode: %s [%d,+%d) overlaps %s [%d,+%d)",
					prev.what, prev.start, prev.count, s.what, s.start, s.count)
			}
		}
	}
	// The spans are now sorted and disjoint, so their ends ascend too:
	// the only span that can overlap a free block is the first one
	// ending past the block's start, found by binary search. The cost
	// is O(F log S) in free blocks and spans.
	var overlap error
	checkFree := func(pool *buddy.Allocator) {
		pool.VisitFree(func(start mem.Frame, count uint64) {
			if overlap != nil {
				return
			}
			i := sort.Search(len(spans), func(i int) bool { return spans[i].start+mem.Frame(spans[i].count) > start })
			if i < len(spans) && spans[i].start < start+mem.Frame(count) {
				s := spans[i]
				overlap = fmt.Errorf("usermode: %s [%d,+%d) overlaps pool free space [%d,+%d)",
					s.what, s.start, s.count, start, count)
			}
		})
	}
	checkFree(gt.pool)
	if gt.fast != nil {
		checkFree(gt.fast)
	}
	if overlap != nil {
		return overlap
	}
	if err := gt.pool.CheckInvariants(); err != nil {
		return fmt.Errorf("usermode: primary pool: %w", err)
	}
	if gt.fast != nil {
		if err := gt.fast.CheckInvariants(); err != nil {
			return fmt.Errorf("usermode: fast pool: %w", err)
		}
	}
	return nil
}

// checkContainment is the heap↔grant containment invariant: each
// process's free runs and live allocations lie inside its grants and
// together tile them exactly.
func (gt *GrantTable) checkContainment() error {
	for pi, p := range gt.procs {
		var covered uint64
		for _, r := range p.freeRuns {
			g := p.grantOf(r.start)
			if g == nil || r.end() > g.end() {
				return fmt.Errorf("usermode: proc %d free run [%d,+%d) not inside one grant", pi, r.start, r.pages)
			}
			covered += r.pages
		}
		for _, e := range p.allocs {
			f := mem.PhysAddr(e.base).Frame()
			g := p.grantOf(f)
			if g == nil || f+mem.Frame(e.pages) > g.end() {
				return fmt.Errorf("usermode: proc %d alloc %#x (+%d pages) not inside one grant", pi, uint64(e.base), e.pages)
			}
			covered += e.pages
		}
		var granted uint64
		for _, g := range p.grants {
			granted += g.run.Count
		}
		if covered != granted {
			return fmt.Errorf("usermode: proc %d covers %d of %d granted pages", pi, covered, granted)
		}
	}
	return nil
}

// checkNoTransitions is the no-kernel-transition accounting invariant:
// the mode-switch counter stays zero, every queue submit was reaped,
// and install/revoke bookkeeping matches the live table.
func (gt *GrantTable) checkNoTransitions() error {
	if n := gt.cTransitions.Value(); n != 0 {
		return fmt.Errorf("usermode: %d kernel transitions in a no-transition world", n)
	}
	if s, c := gt.cSubmits.Value(), gt.cCompletes.Value(); s != c {
		return fmt.Errorf("usermode: %d queue submits but %d completions", s, c)
	}
	in, rv := gt.cInstalled.Value(), gt.cRevoked.Value()
	if live := uint64(gt.LiveExtents()); in-rv != live {
		return fmt.Errorf("usermode: installs-revokes=%d but %d live extents", in-rv, live)
	}
	return nil
}
