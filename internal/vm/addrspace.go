package vm

import (
	"fmt"
	"sort"

	"repro/internal/buddy"
	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/metrics"
	"repro/internal/pagetable"
	"repro/internal/sim"
	"repro/internal/tlb"
)

// mmapBase is where automatic placement starts searching, mirroring the
// upper mmap area of a 48-bit layout.
const mmapBase = mem.VirtAddr(1) << 40

// VMA is one virtual memory area.
type VMA struct {
	Start mem.VirtAddr
	End   mem.VirtAddr // exclusive
	Prot  pagetable.Flags

	Anon    bool
	File    *memfs.File
	FileOff uint64 // file page index at Start
	Private bool   // MAP_PRIVATE: writes COW into anon pages
	Locked  bool   // mlock'd at map time

	// UserFault, if set, resolves faults in this VMA in user space
	// (the userfaultfd mechanism §3.1 points applications at for
	// do-it-yourself swapping). The handler returns the page's initial
	// contents.
	UserFault UserFaultHandler

	// Huge backs the VMA with 2 MiB pages (anonymous + populated
	// only): far fewer PTEs and TLB entries, at the price of aligned
	// contiguous physical memory and internal fragmentation — the §3
	// trade-off.
	Huge bool

	populate bool
}

// UserFaultHandler supplies the contents of a faulting page. page is
// the page index within the VMA. The returned slice may be shorter
// than a page (the rest is zero-filled).
type UserFaultHandler func(page uint64, write bool) ([]byte, error)

// Pages returns the VMA's length in pages.
func (v *VMA) Pages() uint64 { return uint64(v.End-v.Start) / mem.FrameSize }

// Contains reports whether va falls inside the VMA.
func (v *VMA) Contains(va mem.VirtAddr) bool { return va >= v.Start && va < v.End }

// AddressSpace is one process's baseline-VM address space. It is
// scheduled on one CPU at a time (its home CPU); cpuMask records every
// CPU it has ever run on, the mm_cpumask analogue that bounds TLB
// shootdown broadcasts.
type AddressSpace struct {
	kernel *Kernel
	asid   int
	cpu    *sim.CPU

	// arena is the home CPU's private frame arena if one was carved
	// before this address space was created; page-table nodes and
	// anonymous frames then come from it instead of the global pool,
	// making the per-page hot paths free of cross-CPU state.
	arena *Arena

	// cpuMask holds every CPU this address space has run on since
	// creation, i.e. every CPU whose TLB may cache its translations.
	cpuMask sim.CPUSet

	vmas []*VMA // sorted by Start, non-overlapping
	pt   *pagetable.Table

	// swapped records pages that have been swapped out: va -> slot.
	swapped map[mem.VirtAddr]int

	// shootScratch is the reusable target list for shootdown IPIs, so
	// per-page unmap loops do not allocate a slice per page.
	shootScratch []*sim.CPU

	// shoot is the deferred-invalidation queue: one unmap/mprotect
	// burst batches its per-page invalidations and flushes them as a
	// single range invalidation plus one IPI round (see flushShoot).
	shoot shootBatch

	stats *metrics.Set
	// Cached counters for the per-access and per-page paths.
	cTouches, cPopulated *metrics.Counter
	// Per-operation counters, resolved on first use.
	cMmaps, cMunmaps metrics.Lazy
}

// NewAddressSpace creates an empty address space with its own page
// table, scheduled round-robin onto the machine's CPUs.
func (k *Kernel) NewAddressSpace() (*AddressSpace, error) {
	cpu := k.Machine.CPU(k.nextCPU % k.Machine.NumCPUs())
	k.nextCPU++
	return k.NewAddressSpaceOn(cpu)
}

// NewAddressSpaceOn creates an empty address space homed on cpu; the
// page-table setup cost is charged to that CPU. When cpu has a carved
// arena, the address space draws page-table nodes and anonymous frames
// from it.
func (k *Kernel) NewAddressSpaceOn(cpu *sim.CPU) (*AddressSpace, error) {
	ar := k.ArenaFor(cpu)
	nodes := k.meta.ptNodes
	if ar != nil {
		nodes = ar.meta.ptNodes
	}
	pt, err := pagetable.New(cpu, k.Params, nodes, k.levels)
	if err != nil {
		return nil, err
	}
	a := &AddressSpace{
		kernel:  k,
		cpu:     cpu,
		arena:   ar,
		pt:      pt,
		swapped: make(map[mem.VirtAddr]int),
		stats:   metrics.NewSet(),
	}
	a.cTouches = a.stats.Counter("touches")
	a.cPopulated = a.stats.Counter("populated_pages")
	a.cpuMask.Add(cpu.ID())
	// The registry is sharded by creation CPU, so registering touches
	// only cpu's own shard: no sync point even during a parallel phase,
	// and ASID assignment stays a pure function of each CPU's creation
	// order rather than of host scheduling.
	k.registerSpace(a)
	return a, nil
}

// CPU returns the address space's current home CPU.
func (a *AddressSpace) CPU() *sim.CPU { return a.cpu }

// RunOn migrates the address space to cpu: subsequent operations
// execute (and are charged) there. The previous CPU stays in the
// shootdown mask — its TLB may still hold entries.
func (a *AddressSpace) RunOn(cpu *sim.CPU) {
	a.cpu = cpu
	a.cpuMask.Add(cpu.ID())
}

// MarkRanOn adds cpu to the shootdown mask without migrating the home
// CPU: the mm_cpumask effect of a thread briefly scheduled there.
// Subsequent unmaps will shoot cpu's TLB down. Workloads use it to
// model multi-threaded tenants whose threads touch a neighbor CPU.
func (a *AddressSpace) MarkRanOn(cpu *sim.CPU) {
	a.cpuMask.Add(cpu.ID())
}

// run makes the home CPU current, so legacy code charging through the
// forwarding kernel clock lands on it. Called at every syscall/fault
// entry point. During a host-parallel free-running window there is no
// single current CPU and nothing to set: the VM paths charge the home
// CPU explicitly.
func (a *AddressSpace) run() {
	if a.kernel.Machine.FreeRunning() {
		return
	}
	a.kernel.Machine.SetCurrent(a.cpu)
}

// curTLB returns the TLB of the address space's home CPU — the CPU
// executing its syscalls and faults (run() makes it current out of a
// parallel phase).
func (a *AddressSpace) curTLB() *tlb.TLB {
	return a.kernel.tlbs[a.cpu.ID()]
}

// framePool returns the allocator backing this address space's
// anonymous and compound frames.
func (a *AddressSpace) framePool() *buddy.Allocator {
	if a.arena != nil {
		return a.arena.pool
	}
	return a.kernel.pool
}

// shootdownVA invalidates the translation for va on every CPU that may
// cache it: an invalidation on the executing CPU from, plus one modeled
// IPI round to the other CPUs in the mask — each target pays IPIReceive
// and the per-entry invalidation on its own clock, and the initiator
// synchronizes to the slowest target (Lamport merge). With one CPU (or
// a single-CPU mask) no IPIs are sent and only the local invalidation
// is charged, reproducing the pre-SMP behaviour. During a parallel
// phase a nonempty remote set becomes a sync point inside Machine.IPI.
func (a *AddressSpace) shootdownVA(from *sim.CPU, va mem.VirtAddr) {
	k := a.kernel
	if a.cpuMask.Has(from.ID()) {
		k.tlbs[from.ID()].InvalidateVA(a.asid, va)
	}
	k.Machine.IPI(from, a.remoteCPUs(from), func(t *sim.CPU) {
		k.tlbs[t.ID()].InvalidateVA(a.asid, va)
	})
}

// shootBatch is a per-burst deferred-invalidation queue, the
// mmu_gather analogue of Linux's batched TLB flush: instead of one
// shootdown IPI round per page, an unmap burst records the VA range it
// zaps and invalidates it in one round at the end. Each queued page
// charges ShootdownQueueOp (bookkeeping); the flush charges one range
// invalidation per masked CPU — per-page INVLPGs up to the 33-page
// ceiling, one full flush beyond it — and one IPI round to the remote
// mask. The batch is active only inside a single burst on the home
// CPU, so it needs no synchronization.
type shootBatch struct {
	active bool
	lo, hi mem.VirtAddr // page-aligned bounds of the queued range
	pages  uint64       // queued invalidations (4 KiB units)
}

// beginShoot opens a deferred-invalidation batch. Bursts never nest.
func (a *AddressSpace) beginShoot() {
	if a.shoot.active {
		panic("vm: nested shootdown batch")
	}
	a.shoot = shootBatch{active: true}
}

// queueShoot records a pending invalidation of span pages at va,
// charging the per-page batching bookkeeping; outside a batch it
// degrades to an immediate per-page shootdown.
func (a *AddressSpace) queueShoot(cur *sim.CPU, va mem.VirtAddr, span uint64) {
	if !a.shoot.active {
		a.shootdownVA(cur, va)
		return
	}
	cur.Advance(a.kernel.Params.ShootdownQueueOp)
	end := va + mem.VirtAddr(span*mem.FrameSize)
	if a.shoot.pages == 0 {
		a.shoot.lo, a.shoot.hi = va, end
	} else {
		if va < a.shoot.lo {
			a.shoot.lo = va
		}
		if end > a.shoot.hi {
			a.shoot.hi = end
		}
	}
	a.shoot.pages += span
}

// flushShoot closes the batch and performs the coalesced invalidation:
// one range invalidation on every CPU in the mask (the span covers any
// holes conservatively — over-invalidation is safe and mirrors the
// full-flush heuristic real kernels use for large ranges), delivered
// to remote CPUs in a single IPI round.
func (a *AddressSpace) flushShoot(cur *sim.CPU) {
	if !a.shoot.active {
		panic("vm: flush without an open shootdown batch")
	}
	a.shoot.active = false
	if a.shoot.pages == 0 {
		return
	}
	k := a.kernel
	lo := a.shoot.lo
	span := uint64(a.shoot.hi-lo) / mem.FrameSize
	if a.cpuMask.Has(cur.ID()) {
		k.tlbs[cur.ID()].InvalidateRange(a.asid, lo, span)
	}
	k.Machine.IPI(cur, a.remoteCPUs(cur), func(t *sim.CPU) {
		k.tlbs[t.ID()].InvalidateRange(a.asid, lo, span)
	})
	sim.AddCoalescedInvals(int(a.shoot.pages))
}

// remoteCPUs returns the CPUs in the shootdown mask other than from.
// The returned slice is a.shootScratch: valid until the next call,
// which is fine because Machine.IPI only iterates it.
func (a *AddressSpace) remoteCPUs(from *sim.CPU) []*sim.CPU {
	out := a.shootScratch[:0]
	for i := 0; i < a.kernel.Machine.NumCPUs(); i++ {
		if a.cpuMask.Has(i) && i != from.ID() {
			out = append(out, a.kernel.Machine.CPU(i))
		}
	}
	a.shootScratch = out
	return out
}

// Stats exposes per-address-space counters: "mmaps", "munmaps",
// "populated_pages", "touches".
func (a *AddressSpace) Stats() *metrics.Set { return a.stats }

// PageTable exposes the address space's page table (diagnostics and
// the ablation benches).
func (a *AddressSpace) PageTable() *pagetable.Table { return a.pt }

// TLB exposes the TLB of the address space's home CPU.
func (a *AddressSpace) TLB() *tlb.TLB { return a.kernel.tlbs[a.cpu.ID()] }

// ASID returns the address space identifier tagging this space's TLB
// entries.
func (a *AddressSpace) ASID() int { return a.asid }

// VMACount returns the number of VMAs.
func (a *AddressSpace) VMACount() int { return len(a.vmas) }

// MappedPages returns the number of present PTEs.
func (a *AddressSpace) MappedPages() uint64 { return a.pt.MappedPages() }

// findVMA returns the VMA containing va.
func (a *AddressSpace) findVMA(va mem.VirtAddr) (*VMA, bool) {
	a.cpu.Advance(a.kernel.Params.VMAOp)
	i := sort.Search(len(a.vmas), func(i int) bool { return a.vmas[i].End > va })
	if i < len(a.vmas) && a.vmas[i].Contains(va) {
		return a.vmas[i], true
	}
	return nil, false
}

// findGap returns a free region of the given page count at or above
// mmapBase.
func (a *AddressSpace) findGap(pages uint64) (mem.VirtAddr, error) {
	length := mem.VirtAddr(pages * mem.FrameSize)
	cur := mmapBase
	for _, v := range a.vmas {
		if v.End <= cur {
			continue
		}
		if v.Start >= cur+length {
			break
		}
		cur = v.End
	}
	if cur+length >= a.pt.MaxVirt() {
		return 0, fmt.Errorf("vm: address space exhausted")
	}
	return cur, nil
}

// findAlignedGap is findGap with an alignment constraint in pages.
func (a *AddressSpace) findAlignedGap(pages, alignPages uint64) (mem.VirtAddr, error) {
	align := mem.VirtAddr(alignPages * mem.FrameSize)
	length := mem.VirtAddr(pages * mem.FrameSize)
	cur := mmapBase
	for _, v := range a.vmas {
		if v.End <= cur {
			continue
		}
		if v.Start >= cur+length {
			break
		}
		cur = v.End
		if rem := cur % align; rem != 0 {
			cur += align - rem
		}
	}
	if rem := cur % align; rem != 0 {
		cur += align - rem
	}
	if cur+length >= a.pt.MaxVirt() {
		return 0, fmt.Errorf("vm: address space exhausted")
	}
	// The post-alignment position may collide; verify.
	if a.overlapsExisting(cur, pages) {
		return 0, fmt.Errorf("vm: no aligned gap for %d pages", pages)
	}
	return cur, nil
}

// checkPages rejects a page count whose byte length does not fit below
// the top of the address space; pages*FrameSize would otherwise wrap
// and yield a region whose end precedes (or equals) its start. It
// charges nothing, so valid calls cost exactly what they did.
func (a *AddressSpace) checkPages(pages uint64) error {
	if max := uint64(a.pt.MaxVirt()); pages >= max/mem.FrameSize {
		return fmt.Errorf("vm: %d pages do not fit below the %#x-byte address space", pages, max)
	}
	return nil
}

// MmapRequest describes a mapping request.
type MmapRequest struct {
	// Addr is the fixed placement address (0 = kernel chooses).
	Addr mem.VirtAddr
	// Pages is the length in 4 KiB pages.
	Pages uint64
	// Prot is the mapping protection.
	Prot pagetable.Flags
	// Anon selects anonymous memory; otherwise File must be set.
	Anon bool
	// File is the backing file for file mappings (a reference is taken
	// for the lifetime of the mapping).
	File *memfs.File
	// FileOff is the first file page mapped.
	FileOff uint64
	// Populate pre-faults every page (MAP_POPULATE).
	Populate bool
	// Private requests copy-on-write semantics for writes.
	Private bool
	// Locked mlocks the region (implies Populate, like MAP_LOCKED).
	Locked bool
	// UserFault registers a user-space fault handler for the region
	// (anonymous mappings only, incompatible with Populate).
	UserFault UserFaultHandler
	// Huge requests 2 MiB pages (anonymous only; implies Populate;
	// Pages must be a multiple of 512).
	Huge bool
}

// Mmap creates a mapping and returns its address. It charges the
// syscall overhead plus VMA bookkeeping; with Populate it additionally
// pays the per-page population loop that Figure 6a measures.
func (a *AddressSpace) Mmap(req MmapRequest) (mem.VirtAddr, error) {
	k := a.kernel
	a.run()
	a.cpu.Advance(k.Params.SyscallOverhead + k.Params.MmapFixed)
	if req.Pages == 0 {
		return 0, fmt.Errorf("vm: empty mapping")
	}
	if err := a.checkPages(req.Pages); err != nil {
		return 0, err
	}
	if !req.Anon && req.File == nil {
		return 0, fmt.Errorf("vm: file mapping without file")
	}
	if req.Anon && req.File != nil {
		return 0, fmt.Errorf("vm: anonymous mapping with file")
	}
	if req.Prot == 0 {
		return 0, fmt.Errorf("vm: PROT_NONE mappings not supported")
	}
	addr := req.Addr
	if addr == 0 {
		var err error
		addr, err = a.findGap(req.Pages)
		if err != nil {
			return 0, err
		}
	} else {
		if uint64(addr)%mem.FrameSize != 0 {
			return 0, fmt.Errorf("vm: unaligned fixed address %#x", uint64(addr))
		}
		if a.overlapsExisting(addr, req.Pages) {
			return 0, fmt.Errorf("vm: fixed mapping at %#x overlaps existing VMA", uint64(addr))
		}
	}
	if req.Locked {
		req.Populate = true
	}
	if req.UserFault != nil {
		if !req.Anon {
			return 0, fmt.Errorf("vm: user-fault regions must be anonymous")
		}
		if req.Populate {
			return 0, fmt.Errorf("vm: user-fault regions cannot be populated")
		}
	}
	if req.Huge {
		if !req.Anon || req.UserFault != nil {
			return 0, fmt.Errorf("vm: huge mappings must be plain anonymous memory")
		}
		if req.Pages%mem.HugeFrames2M != 0 {
			return 0, fmt.Errorf("vm: huge mapping length %d pages not a 2 MiB multiple", req.Pages)
		}
		req.Populate = true
		if uint64(addr)%(mem.HugeFrames2M*mem.FrameSize) != 0 {
			if req.Addr != 0 {
				return 0, fmt.Errorf("vm: fixed huge mapping at %#x not 2 MiB aligned", uint64(addr))
			}
			aligned, err := a.findAlignedGap(req.Pages, mem.HugeFrames2M)
			if err != nil {
				return 0, err
			}
			addr = aligned
		}
	}
	v := &VMA{
		Start:     addr,
		End:       addr + mem.VirtAddr(req.Pages*mem.FrameSize),
		Prot:      req.Prot,
		Anon:      req.Anon,
		File:      req.File,
		FileOff:   req.FileOff,
		Private:   req.Private,
		Locked:    req.Locked,
		UserFault: req.UserFault,
		Huge:      req.Huge,
		populate:  req.Populate,
	}
	if v.File != nil {
		if v.FileOff+req.Pages > v.File.Inode().Pages() {
			return 0, fmt.Errorf("vm: mapping [%d,+%d) pages beyond EOF (%d pages)",
				v.FileOff, req.Pages, v.File.Inode().Pages())
		}
		v.File.Ref() // the mapping pins the file
	}
	a.insertVMA(v)
	a.cMmaps.Of(a.stats, "mmaps").Inc()

	if req.Populate {
		if err := a.populateVMA(v); err != nil {
			return 0, err
		}
	}
	return addr, nil
}

func (a *AddressSpace) overlapsExisting(addr mem.VirtAddr, pages uint64) bool {
	end := addr + mem.VirtAddr(pages*mem.FrameSize)
	for _, v := range a.vmas {
		if v.Start < end && addr < v.End {
			return true
		}
	}
	return false
}

// insertVMA adds v in sorted position, merging with adjacent anonymous
// VMAs of identical attributes (the Linux merge optimization §3.1
// notes becomes harder with file-only memory).
func (a *AddressSpace) insertVMA(v *VMA) {
	k := a.kernel
	a.cpu.Advance(k.Params.VMAOp)
	i := sort.Search(len(a.vmas), func(i int) bool { return a.vmas[i].Start > v.Start })
	// Merge left.
	if i > 0 {
		l := a.vmas[i-1]
		if l.End == v.Start && canMerge(l, v) {
			l.End = v.End
			a.cpu.Advance(k.Params.VMAOp)
			// Merge right into the grown left.
			if i < len(a.vmas) {
				r := a.vmas[i]
				if l.End == r.Start && canMerge(l, r) {
					l.End = r.End
					a.vmas = append(a.vmas[:i], a.vmas[i+1:]...)
				}
			}
			return
		}
	}
	// Merge right.
	if i < len(a.vmas) {
		r := a.vmas[i]
		if v.End == r.Start && canMerge(v, r) {
			r.Start = v.Start
			a.cpu.Advance(k.Params.VMAOp)
			return
		}
	}
	a.vmas = append(a.vmas, nil)
	copy(a.vmas[i+1:], a.vmas[i:])
	a.vmas[i] = v
}

func canMerge(l, r *VMA) bool {
	return l.Anon && r.Anon &&
		l.UserFault == nil && r.UserFault == nil &&
		l.Huge == r.Huge && !l.Huge &&
		l.Prot == r.Prot &&
		l.Private == r.Private &&
		l.Locked == r.Locked &&
		l.populate == r.populate
}

// populateVMA pre-faults every page of the VMA — the linear
// MAP_POPULATE loop. Huge VMAs populate in 2 MiB steps instead.
func (a *AddressSpace) populateVMA(v *VMA) error {
	if v.Huge {
		return a.populateHuge(v)
	}
	c := a.pt.Cursor()
	for p := uint64(0); p < v.Pages(); p++ {
		va := v.Start + mem.VirtAddr(p*mem.FrameSize)
		if _, _, ok := c.Lookup(va); ok {
			continue
		}
		if err := a.installPage(&c, v, va, false); err != nil {
			return err
		}
		a.cPopulated.Inc()
	}
	return nil
}

// populateHuge backs a huge VMA with 2 MiB pages: one aligned 512-frame
// run, one zeroing pass, and one PTE per 2 MiB.
func (a *AddressSpace) populateHuge(v *VMA) error {
	k := a.kernel
	for c := uint64(0); c < v.Pages(); c += mem.HugeFrames2M {
		va := v.Start + mem.VirtAddr(c*mem.FrameSize)
		if _, _, ok := a.pt.Lookup(va); ok {
			continue
		}
		run, err := a.framePool().Alloc(9) // order-9 block: 512 aligned frames
		if err != nil {
			return fmt.Errorf("vm: no contiguous 2 MiB block: %w", err)
		}
		k.Memory.ZeroFramesOn(a.cpu, run, mem.HugeFrames2M)
		if err := a.pt.Map2M(a.cpu, va, run, v.Prot); err != nil {
			return err
		}
		pi := k.trackPage(a.cpu, run, PGAnon|PGCompound)
		k.addRmap(a.cpu, pi, a, va)
		a.cPopulated.Add(mem.HugeFrames2M)
	}
	return nil
}

// Munmap removes mappings in [addr, addr+pages*4K). Whole-VMA unmaps
// only (like the common munmap use); partial unmaps split VMAs.
func (a *AddressSpace) Munmap(addr mem.VirtAddr, pages uint64) error {
	k := a.kernel
	a.run()
	a.cpu.Advance(k.Params.SyscallOverhead)
	if err := a.checkPages(pages); err != nil {
		return err
	}
	end := addr + mem.VirtAddr(pages*mem.FrameSize)
	var kept []*VMA
	var dropped []*VMA
	for _, v := range a.vmas {
		switch {
		case v.End <= addr || v.Start >= end:
			kept = append(kept, v)
		case v.Start >= addr && v.End <= end:
			dropped = append(dropped, v)
		default:
			// Partial overlap: split into retained pieces.
			a.cpu.Advance(k.Params.VMAOp)
			if v.Start < addr {
				left := *v
				left.End = addr
				kept = append(kept, &left)
				if v.File != nil {
					v.File.Ref()
				}
			}
			if v.End > end {
				right := *v
				right.Start = end
				right.FileOff = v.FileOff + uint64(end-v.Start)/mem.FrameSize
				kept = append(kept, &right)
				if v.File != nil {
					v.File.Ref()
				}
			}
			mid := *v
			if mid.Start < addr {
				mid.FileOff += uint64(addr-mid.Start) / mem.FrameSize
				mid.Start = addr
			}
			if mid.End > end {
				mid.End = end
			}
			dropped = append(dropped, &mid)
		}
	}
	if len(dropped) == 0 {
		return fmt.Errorf("vm: munmap of unmapped range [%#x,+%d pages)", uint64(addr), pages)
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Start < kept[j].Start })
	a.vmas = kept
	for _, v := range dropped {
		if err := a.zapVMA(v); err != nil {
			return err
		}
	}
	a.cMunmaps.Of(a.stats, "munmaps").Inc()
	return nil
}

// zapVMA tears down a VMA's pages and drops its file reference.
func (a *AddressSpace) zapVMA(v *VMA) error {
	k := a.kernel
	if err := a.zapRange(v, v.Start, v.Pages()); err != nil {
		return err
	}
	// Swapped-out pages of the region die with it.
	for va := range a.swapped {
		if va >= v.Start && va < v.End {
			k.swap.free(a.swapped[va])
			delete(a.swapped, va)
		}
	}
	if v.File != nil {
		if err := v.File.Unref(); err != nil {
			return err
		}
	}
	return nil
}

// zapRange unmaps pages and releases anonymous frames. Every page
// pays a PTE clear, struct-page and rmap updates — the O(pages)
// teardown work of the baseline design — but the per-page TLB
// shootdowns are queued into one deferred-invalidation batch and
// flushed as a single range invalidation plus one IPI round for the
// whole burst, the way Linux's mmu_gather batches munmap flushes.
func (a *AddressSpace) zapRange(v *VMA, start mem.VirtAddr, pages uint64) error {
	k := a.kernel
	cur := a.cpu
	a.beginShoot()
	defer a.flushShoot(cur)
	end := start + mem.VirtAddr(pages*mem.FrameSize)
	c := a.pt.Cursor()
	return c.UnmapRange(cur, start, end, func(va mem.VirtAddr, frame mem.Frame, span uint64) error {
		a.queueShoot(cur, va, span)
		pi, tracked := k.page(frame)
		if !tracked {
			return nil
		}
		if err := k.delRmap(cur, pi, a, va); err != nil {
			return err
		}
		if pi.Mapped() {
			return nil
		}
		flags := pi.Flags
		k.forgetPage(cur, pi)
		switch {
		case flags&PGCompound != 0:
			return k.poolFor(frame).Free(frame)
		case flags&PGAnon != 0:
			return k.freeAnonFrame(frame)
		}
		return nil
	})
}

// Mprotect rewrites the protection of [addr, addr+pages*4K): a
// per-page PTE update plus TLB invalidation.
func (a *AddressSpace) Mprotect(addr mem.VirtAddr, pages uint64, prot pagetable.Flags) error {
	k := a.kernel
	a.run()
	a.cpu.Advance(k.Params.SyscallOverhead)
	if err := a.checkPages(pages); err != nil {
		return err
	}
	v, ok := a.findVMA(addr)
	if !ok || addr+mem.VirtAddr(pages*mem.FrameSize) > v.End {
		return fmt.Errorf("vm: mprotect range not within one VMA")
	}
	if v.Start != addr || v.Pages() != pages {
		return fmt.Errorf("vm: partial-VMA mprotect not supported (split first)")
	}
	v.Prot = prot
	step := uint64(1)
	if v.Huge {
		step = mem.HugeFrames2M
	}
	cur := a.cpu
	a.beginShoot()
	defer a.flushShoot(cur)
	c := a.pt.Cursor()
	for p := uint64(0); p < pages; p += step {
		va := addr + mem.VirtAddr(p*mem.FrameSize)
		if _, f, ok := c.Lookup(va); ok {
			newFlags := prot
			if f&pagetable.FlagCOW != 0 {
				newFlags = (prot &^ pagetable.FlagWrite) | pagetable.FlagCOW
			}
			if err := c.Protect(cur, va, newFlags); err != nil {
				return err
			}
			a.queueShoot(cur, va, step)
		}
	}
	return nil
}

// MadviseDontneed drops the pages of [addr, +pages) while keeping the
// VMA, as MADV_DONTNEED does: the heap's way of returning memory.
func (a *AddressSpace) MadviseDontneed(addr mem.VirtAddr, pages uint64) error {
	k := a.kernel
	a.run()
	a.cpu.Advance(k.Params.SyscallOverhead)
	if err := a.checkPages(pages); err != nil {
		return err
	}
	v, ok := a.findVMA(addr)
	if !ok || addr+mem.VirtAddr(pages*mem.FrameSize) > v.End {
		return fmt.Errorf("vm: madvise range not within one VMA")
	}
	return a.zapRange(v, addr, pages)
}

// Mlock pins the VMA's pages (populating them first, as mlock must).
func (a *AddressSpace) Mlock(addr mem.VirtAddr) error {
	k := a.kernel
	a.run()
	a.cpu.Advance(k.Params.SyscallOverhead)
	v, ok := a.findVMA(addr)
	if !ok {
		return fmt.Errorf("vm: mlock of unmapped address %#x", uint64(addr))
	}
	v.Locked = true
	if err := a.populateVMA(v); err != nil {
		return err
	}
	c := a.pt.Cursor()
	for p := uint64(0); p < v.Pages(); p++ {
		va := v.Start + mem.VirtAddr(p*mem.FrameSize)
		if pa, _, ok := c.Lookup(va); ok {
			if pi, tracked := k.page(pa.Frame()); tracked {
				pi.Flags |= PGMlocked
				k.chargeMeta(a.cpu, 1)
			}
		}
	}
	return nil
}

// Destroy tears down the whole address space (process exit).
func (a *AddressSpace) Destroy() error {
	k := a.kernel
	a.run()
	for _, v := range a.vmas {
		if err := a.zapVMA(v); err != nil {
			return err
		}
	}
	a.vmas = nil
	// The registry shard belongs to the creation CPU. Deregistering
	// from that CPU (the common case — tenants die where they were
	// born) is shard-local and needs no sync point; a space destroyed
	// from another CPU during a parallel phase syncs with the shard
	// owner only.
	shard := (a.asid - 1) % len(k.shards)
	deregister := func() { delete(k.shards[shard].spaces, a.asid) }
	if k.Machine.FreeRunning() && shard != a.cpu.ID() {
		k.Machine.OrderedDomain(a.cpu, []*sim.CPU{k.Machine.CPU(shard)}, deregister)
	} else {
		deregister()
	}
	return a.pt.Destroy()
}

// VMAs returns a snapshot of the address space's VMAs.
func (a *AddressSpace) VMAs() []VMA {
	out := make([]VMA, len(a.vmas))
	for i, v := range a.vmas {
		out[i] = *v
	}
	return out
}
