package core

import (
	"fmt"
	"sort"

	"repro/internal/buddy"
	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/metrics"
	"repro/internal/pagetable"
	"repro/internal/rangetable"
	"repro/internal/sim"
	"repro/internal/tlb"
)

// ptPool allocates page-table node frames for SharedPT mode; nodes
// recycles the node structs of every table built on bud (the masters
// and all processes).
type ptPool struct {
	bud   *buddy.Allocator
	nodes *pagetable.Pool
}

func newPTPool(clock *sim.Clock, params *sim.Params, base mem.Frame, frames uint64) (*ptPool, error) {
	bud, err := buddy.New(clock, params, base, frames)
	if err != nil {
		return nil, err
	}
	return &ptPool{bud: bud, nodes: pagetable.NewPool(bud)}, nil
}

// Process is one file-only-memory address space. Depending on the
// system's hardware assumption it translates PBM addresses either with
// a range table + range TLB (Ranges) or with a conventional page table
// built from shared pre-created subtrees (SharedPT).
type Process struct {
	sys  *System
	pid  int // doubles as the ASID tagging this process's TLB entries
	mode TranslationMode
	cpu  *sim.CPU // home CPU; syscalls and accesses execute here

	// cpuMask holds every CPU the process ever ran on — the
	// mm_cpumask. Translations tagged with this PID can only have been
	// cached on masked CPUs (translate fills the executing CPU's cache,
	// and execution happens only via RunOn/MarkRanOn-tracked CPUs), so
	// shootdowns IPI exactly the masked CPUs instead of broadcasting.
	cpuMask sim.CPUSet

	// shoot batches the translation invalidations of one unmap burst
	// into a single shootdown round (see flushShoot).
	shoot shootList

	// Ranges mode state. The range TLB itself is per-CPU (sys.rtlbs).
	ranges *rangetable.Table

	// SharedPT mode state. The page TLB itself is per-CPU (sys.tlbs).
	pt *pagetable.Table

	mappings map[mem.VirtAddr]*Mapping // keyed by first segment VA
	exited   bool

	stats *metrics.Set
	// cTouches is the cached per-access counter (translate is the
	// hottest loop in the range experiments).
	cTouches *metrics.Counter
	// Per-operation counters, resolved on first use.
	cAllocs, cMaps, cUnmaps metrics.Lazy
}

// NewProcess creates a process using the given translation mode,
// scheduled round-robin onto the machine's CPUs.
func (s *System) NewProcess(mode TranslationMode) (*Process, error) {
	cpu := s.machine.CPU(s.nextCPU % s.machine.NumCPUs())
	s.nextCPU++
	return s.NewProcessOn(cpu, mode)
}

// NewProcessOn creates a process pinned to the given CPU.
func (s *System) NewProcessOn(cpu *sim.CPU, mode TranslationMode) (*Process, error) {
	s.procs++
	p := &Process{
		sys:      s,
		pid:      s.procs,
		mode:     mode,
		cpu:      cpu,
		mappings: make(map[mem.VirtAddr]*Mapping),
		stats:    metrics.NewSet(),
	}
	p.cTouches = p.stats.Counter("touches")
	p.cpuMask.Add(cpu.ID())
	if !s.machine.FreeRunning() {
		s.machine.SetCurrent(cpu)
	}
	switch mode {
	case Ranges:
		p.ranges = rangetable.New(s.clock, s.params)
	case SharedPT:
		pt, err := pagetable.New(cpu, s.params, s.ptPool.nodes, pagetable.Levels4)
		if err != nil {
			return nil, err
		}
		p.pt = pt
	default:
		return nil, fmt.Errorf("core: unknown translation mode %d", mode)
	}
	s.live[p.pid] = p
	return p, nil
}

// RunOn migrates the process to cpu: subsequent syscalls and accesses
// execute (and are charged) there. The previous CPU stays in the
// shootdown mask — its caches may still hold this PID's translations.
func (p *Process) RunOn(cpu *sim.CPU) {
	p.cpu = cpu
	p.cpuMask.Add(cpu.ID())
}

// MarkRanOn adds cpu to the shootdown mask without migrating the home
// CPU: the mm_cpumask effect of a thread briefly scheduled there.
func (p *Process) MarkRanOn(cpu *sim.CPU) { p.cpuMask.Add(cpu.ID()) }

// run switches machine execution to the process's home CPU: syscalls
// and memory accesses below charge that CPU's clock. During a
// host-parallel free-running window there is no single current CPU and
// nothing to set: the paths below charge the home CPU explicitly.
func (p *Process) run() {
	if p.sys.machine.FreeRunning() {
		return
	}
	p.sys.machine.SetCurrent(p.cpu)
}

// shootTargets returns the masked CPUs other than cur, in ID order —
// the IPI targets of a shootdown initiated on cur. cur is normally the
// home CPU, but a tier migration flushes from whichever CPU runs the
// migration engine, which must then IPI the home CPU too.
func (p *Process) shootTargets(cur *sim.CPU) []*sim.CPU {
	var out []*sim.CPU
	for id := 0; id < p.sys.machine.NumCPUs(); id++ {
		if p.cpuMask.Has(id) && id != cur.ID() {
			out = append(out, p.sys.machine.CPU(id))
		}
	}
	return out
}

// shootList accumulates the translation invalidations of one unmap
// burst (an Unmap, Protect, or Exit): range-table bases in Ranges
// mode, subtree units in SharedPT mode. Queuing an entry charges the
// flush-list maintenance cost; the whole list is then flushed with ONE
// IPI round to the masked CPUs — the mmu_gather-style batching a real
// kernel performs — instead of one round per segment.
type shootList struct {
	active bool
	rbases []mem.VirtAddr
	units  []linkUnit
}

// beginShoot opens a deferred-shootdown batch. Batches do not nest.
func (p *Process) beginShoot() {
	if p.shoot.active {
		panic("core: nested shootdown batch")
	}
	p.shoot.active = true
}

// queueShootRange defers one range-translation invalidation.
func (p *Process) queueShootRange(vbase mem.VirtAddr) {
	p.queueShootRangeOn(p.cpu, vbase)
}

// queueShootRangeOn is queueShootRange charging an explicit CPU (the
// tier migration path runs on the migrating CPU, not the home CPU).
func (p *Process) queueShootRangeOn(cur *sim.CPU, vbase mem.VirtAddr) {
	cur.Advance(p.sys.params.ShootdownQueueOp)
	p.shoot.rbases = append(p.shoot.rbases, vbase)
}

// queueShootUnits defers subtree-unit invalidations.
func (p *Process) queueShootUnits(units []linkUnit) {
	p.queueShootUnitsOn(p.cpu, units)
}

// queueShootUnitsOn is queueShootUnits charging an explicit CPU.
func (p *Process) queueShootUnitsOn(cur *sim.CPU, units []linkUnit) {
	cur.Advance(sim.Time(len(units)) * p.sys.params.ShootdownQueueOp)
	p.shoot.units = append(p.shoot.units, units...)
}

// flushShoot closes the batch and performs the shootdown: the home CPU
// flushes its own caches directly, then one IPI round covers every
// other masked CPU. Each range base is one invalidation per CPU
// regardless of the range's size; each subtree unit flushes per-page
// below the single-page-flush ceiling and with a full TLB flush above
// it (after which further units are moot).
func (p *Process) flushShoot() {
	p.flushShootOn(p.cpu)
}

// flushShootOn is flushShoot initiated from an explicit CPU: cur
// flushes its own caches directly and IPIs every other masked CPU —
// including the home CPU when a tier migration flushes from elsewhere.
func (p *Process) flushShootOn(cur *sim.CPU) {
	sh := &p.shoot
	if !sh.active {
		panic("core: flushShoot without beginShoot")
	}
	sh.active = false
	if len(sh.rbases) == 0 && len(sh.units) == 0 {
		return
	}
	s := p.sys
	flush := func(id int) {
		for _, vb := range sh.rbases {
			s.rtlbs[id].Invalidate(p.pid, vb)
		}
		for _, u := range sh.units {
			t := s.tlbs[id]
			t.InvalidateRange(p.pid, u.va, u.pages)
			if u.pages > tlb.SinglePageFlushCeiling {
				// The full flush emptied the TLB; further units are moot.
				break
			}
		}
	}
	flush(cur.ID())
	s.machine.IPI(cur, p.shootTargets(cur), func(t *sim.CPU) {
		flush(t.ID())
	})
	sim.AddCoalescedInvals(len(sh.rbases) + len(sh.units))
	sh.rbases, sh.units = sh.rbases[:0], sh.units[:0]
}

// RangeTable exposes the process's range table (nil in SharedPT mode).
func (p *Process) RangeTable() *rangetable.Table { return p.ranges }

// PageTable exposes the process's page table (nil in Ranges mode).
func (p *Process) PageTable() *pagetable.Table { return p.pt }

// Segment is one contiguous piece of a mapping: file pages
// [FileOff, FileOff+Pages) at virtual [VA, VA+Pages*4K) backed by
// frames [Frame, Frame+Pages).
type Segment struct {
	VA      mem.VirtAddr
	Frame   mem.Frame
	Pages   uint64
	FileOff uint64
}

// Mapping is one mapped file in one process.
type Mapping struct {
	proc     *Process
	file     *memfs.File
	prot     pagetable.Flags
	segments []Segment
	pages    uint64
	padded   uint64 // SharedPT padding pages beyond the requested size
}

// Base returns the mapping's first virtual address. For single-extent
// files (the common case for file-only memory allocations) the whole
// mapping is contiguous starting here.
func (m *Mapping) Base() mem.VirtAddr { return m.segments[0].VA }

// Pages returns the mapped length in pages (excluding SharedPT
// padding).
func (m *Mapping) Pages() uint64 { return m.pages }

// Bytes returns the mapped length in bytes.
func (m *Mapping) Bytes() uint64 { return m.pages * mem.FrameSize }

// File returns the backing file.
func (m *Mapping) File() *memfs.File { return m.file }

// Contiguous reports whether the mapping occupies one virtual range.
func (m *Mapping) Contiguous() bool { return len(m.segments) == 1 }

// Segments returns the mapping's segments.
func (m *Mapping) Segments() []Segment {
	out := make([]Segment, len(m.segments))
	copy(out, m.segments)
	return out
}

// VAForOffset returns the virtual address of a byte offset into the
// file, following segments for fragmented files.
func (m *Mapping) VAForOffset(off uint64) (mem.VirtAddr, error) {
	page := off / mem.FrameSize
	for _, seg := range m.segments {
		if page >= seg.FileOff && page < seg.FileOff+seg.Pages {
			return seg.VA + mem.VirtAddr(off-seg.FileOff*mem.FrameSize), nil
		}
	}
	return 0, fmt.Errorf("core: offset %d outside mapping (%d pages)", off, m.pages)
}

// AllocVolatile allocates pages of volatile memory as an anonymous
// single-extent file and maps it — the file-only-memory replacement
// for mmap(MAP_ANONYMOUS). The operation is O(1) in the allocation
// size: one extent allocation, one epoch erase, one mapping insert.
func (p *Process) AllocVolatile(pages uint64, prot pagetable.Flags) (*Mapping, error) {
	if p.exited {
		return nil, fmt.Errorf("core: process %d has exited", p.pid)
	}
	p.run()
	s := p.sys
	s.clock.Advance(s.params.SyscallOverhead + s.params.MmapFixed)
	alloc := pages
	var padding uint64
	if p.mode == SharedPT {
		// Pad to the subtree granularity: space traded for O(1) time.
		if rem := pages % chunkPages; rem != 0 {
			padding = chunkPages - rem
			alloc = pages + padding
		}
	}
	f, err := s.fs.CreateTemp(fmt.Sprintf("anon-pid%d", p.pid), memfs.CreateOptions{Mode: prot})
	if err != nil {
		return nil, err
	}
	// Allocations beyond the largest buddy block (1 GiB) use one extent
	// per maximal block: cost O(extents) = O(size / 1 GiB), still
	// independent of the page count. SharedPT extents stay chunk-
	// aligned so subtree links remain possible under fragmentation.
	if alloc > maxContiguousPages {
		align := uint64(1)
		if p.mode == SharedPT {
			align = chunkPages
		}
		err = f.EnsureExtents(alloc, align)
	} else {
		err = f.EnsureContiguous(alloc)
	}
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	m, err := p.installMapping(f, prot, pages, padding)
	if err != nil {
		return nil, err
	}
	// The mapping holds the only reference; drop the create handle's.
	// (installMapping took its own reference.)
	if err := f.Close(); err != nil {
		return nil, err
	}
	p.cAllocs.Of(p.stats, "allocs").Inc()
	s.cAllocs.Of(s.stats, "allocs").Inc()
	return m, nil
}

// MapFile maps an existing file in full. The cost is O(extents) —
// independent of the file size. In SharedPT mode the file's extents
// must be chunk-aligned (files created by this package are; foreign
// files fall back with an error suggesting Ranges mode).
func (p *Process) MapFile(f *memfs.File, prot pagetable.Flags) (*Mapping, error) {
	if p.exited {
		return nil, fmt.Errorf("core: process %d has exited", p.pid)
	}
	p.run()
	s := p.sys
	s.clock.Advance(s.params.SyscallOverhead + s.params.MmapFixed)
	pages := f.Inode().Pages()
	if pages == 0 {
		return nil, fmt.Errorf("core: mapping empty file")
	}
	if f.Inode().AllocatedPages() < pages {
		return nil, fmt.Errorf("core: file has holes; file-only memory maps fully backed files")
	}
	if prot&^f.Inode().Mode() != 0 {
		return nil, fmt.Errorf("core: requested protection %v exceeds file mode %v", prot, f.Inode().Mode())
	}
	m, err := p.installMapping(f, prot, pages, 0)
	if err != nil {
		return nil, err
	}
	p.cMaps.Of(p.stats, "maps").Inc()
	s.cMaps.Of(s.stats, "maps").Inc()
	return m, nil
}

// installMapping installs translations for every extent of f.
func (p *Process) installMapping(f *memfs.File, prot pagetable.Flags, pages, padding uint64) (*Mapping, error) {
	m := &Mapping{proc: p, file: f, prot: prot, pages: pages, padded: padding}
	for _, e := range f.Inode().Extents() {
		seg := Segment{
			VA:      VAForPhys(e.Start.Addr()),
			Frame:   e.Start,
			Pages:   e.Count,
			FileOff: e.Logical,
		}
		switch p.mode {
		case Ranges:
			if err := p.ranges.Insert(rangetable.Entry{
				VBase: seg.VA,
				Pages: seg.Pages,
				PBase: seg.Frame,
				Flags: prot,
			}); err != nil {
				return nil, p.teardownPartial(m, err)
			}
		case SharedPT:
			if err := p.linkSegment(seg, prot); err != nil {
				return nil, p.teardownPartial(m, err)
			}
		}
		m.segments = append(m.segments, seg)
	}
	if _, dup := p.mappings[m.Base()]; dup {
		return nil, p.teardownPartial(m, fmt.Errorf("core: file already mapped at %#x", uint64(m.Base())))
	}
	f.Ref()
	p.mappings[m.Base()] = m
	return m, nil
}

func (p *Process) teardownPartial(m *Mapping, cause error) error {
	p.beginShoot()
	defer p.flushShoot()
	for _, seg := range m.segments {
		_ = p.unmapSegment(seg)
	}
	return cause
}

// gigPages is the level-3 link granularity (1 GiB).
const gigPages = chunkPages * 512

// maxContiguousPages is the largest single buddy block (1 GiB).
const maxContiguousPages = gigPages

// linkUnit is one subtree link decision: a 2 MiB chunk (level 2) or a
// whole 1 GiB region (level 3), chosen by alignment. The decomposition
// is a pure function of the segment, so link, unlink and relink agree.
type linkUnit struct {
	va    mem.VirtAddr
	level int
	pages uint64
}

func linkUnits(seg Segment) []linkUnit {
	var units []linkUnit
	c := uint64(0)
	for c < seg.Pages {
		va := seg.VA + mem.VirtAddr(c*mem.FrameSize)
		frame := uint64(seg.Frame) + c
		if seg.Pages-c >= gigPages && va.VPN()%gigPages == 0 && frame%gigPages == 0 {
			units = append(units, linkUnit{va: va, level: 3, pages: gigPages})
			c += gigPages
			continue
		}
		units = append(units, linkUnit{va: va, level: 2, pages: chunkPages})
		c += chunkPages
	}
	return units
}

// linkSegment links a segment from the master table — one entry write
// per 2 MiB chunk, or per whole GiB when alignment allows (the paper's
// "natural granularities of page table structures (e.g., 2MB, 1GB)").
func (p *Process) linkSegment(seg Segment, prot pagetable.Flags) error {
	return p.linkSegmentOn(p.cpu, seg, prot)
}

// linkSegmentOn is linkSegment charging an explicit CPU (tier
// migrations relink segments from the migrating CPU).
func (p *Process) linkSegmentOn(cur *sim.CPU, seg Segment, prot pagetable.Flags) error {
	s := p.sys
	if seg.Pages%chunkPages != 0 || uint64(seg.Frame)%chunkPages != 0 {
		return fmt.Errorf("core: segment [%d,+%d) not chunk-aligned; use Ranges mode for foreign files", seg.Frame, seg.Pages)
	}
	master, err := s.master(cur, prot)
	if err != nil {
		return err
	}
	for _, u := range linkUnits(seg) {
		// A level-3 link shares a level-2 master node, which requires
		// every 2 MiB chunk beneath it to be populated (one-time).
		for c := uint64(0); c < u.pages; c += chunkPages {
			if err := s.ensureChunk(master, cur, u.va+mem.VirtAddr(c*mem.FrameSize)); err != nil {
				return err
			}
		}
		if err := p.pt.LinkSubtree(cur, u.va, master.table, u.va, u.level); err != nil {
			return err
		}
		s.cChunkLinks.Of(s.stats, "chunk_links").Inc()
	}
	return nil
}

// unmapSegment removes a segment's translations and queues their
// shootdown on the caller's open batch.
func (p *Process) unmapSegment(seg Segment) error {
	return p.unmapSegmentOn(p.cpu, seg)
}

// unmapSegmentOn is unmapSegment charging an explicit CPU.
func (p *Process) unmapSegmentOn(cur *sim.CPU, seg Segment) error {
	switch p.mode {
	case Ranges:
		if _, err := p.ranges.Remove(seg.VA); err != nil {
			return err
		}
		p.queueShootRangeOn(cur, seg.VA)
	case SharedPT:
		units := linkUnits(seg)
		for _, u := range units {
			if err := p.pt.UnlinkSubtree(cur, u.va, u.level); err != nil {
				return err
			}
		}
		p.queueShootUnitsOn(cur, units)
	}
	return nil
}

// Unmap removes a mapping. Reclamation is by whole file: if this was
// the last reference to an unlinked (anonymous or deleted) file, its
// extents are freed and epoch-erased — no page scanning anywhere.
func (p *Process) Unmap(m *Mapping) error {
	if m.proc != p {
		return fmt.Errorf("core: mapping belongs to process %d", m.proc.pid)
	}
	p.run()
	s := p.sys
	s.clock.Advance(s.params.SyscallOverhead)
	if _, ok := p.mappings[m.Base()]; !ok {
		return fmt.Errorf("core: mapping at %#x not installed", uint64(m.Base()))
	}
	p.beginShoot()
	defer p.flushShoot()
	for _, seg := range m.segments {
		if err := p.unmapSegment(seg); err != nil {
			return err
		}
	}
	delete(p.mappings, m.Base())
	p.cUnmaps.Of(p.stats, "unmaps").Inc()
	s.cUnmaps.Of(s.stats, "unmaps").Inc()
	return m.file.Unref()
}

// Protect rewrites a mapping's protection at file grain: one update
// per extent (Ranges) or a relink against the other master (SharedPT).
func (p *Process) Protect(m *Mapping, prot pagetable.Flags) error {
	p.run()
	s := p.sys
	s.clock.Advance(s.params.SyscallOverhead)
	if _, ok := p.mappings[m.Base()]; !ok {
		return fmt.Errorf("core: mapping at %#x not installed", uint64(m.Base()))
	}
	p.beginShoot()
	defer p.flushShoot()
	switch p.mode {
	case Ranges:
		for _, seg := range m.segments {
			if err := p.ranges.UpdateFlags(seg.VA, prot); err != nil {
				return err
			}
			p.queueShootRange(seg.VA)
		}
	case SharedPT:
		for _, seg := range m.segments {
			if err := p.unmapSegment(seg); err != nil {
				return err
			}
			if err := p.linkSegment(seg, prot); err != nil {
				return err
			}
		}
	}
	m.prot = prot
	return nil
}

// Exit tears down the process: every mapping is unmapped (O(mappings ×
// extents) work total) and anonymous files are reclaimed as whole
// files. Mappings are torn down in ascending address order — Go map
// iteration order must not leak into simulated clocks — and the whole
// teardown's shootdowns coalesce into a single IPI round.
func (p *Process) Exit() error {
	if p.exited {
		return fmt.Errorf("core: process %d already exited", p.pid)
	}
	p.run()
	bases := make([]mem.VirtAddr, 0, len(p.mappings))
	for base := range p.mappings {
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	p.beginShoot()
	defer p.flushShoot()
	for _, base := range bases {
		m := p.mappings[base]
		for _, seg := range m.segments {
			if err := p.unmapSegment(seg); err != nil {
				return err
			}
		}
		if err := m.file.Unref(); err != nil {
			return err
		}
	}
	p.mappings = nil
	p.exited = true
	delete(p.sys.live, p.pid)
	if p.pt != nil {
		if err := p.pt.Destroy(); err != nil {
			return err
		}
	}
	return nil
}
