// Package core implements the paper's primary contribution: file-only
// memory with Order(1) operations.
//
// All user-mode memory is allocated as files in an extent-based memory
// file system (package memfs) living in persistent memory. Every
// memory-management operation is constant time in the mapping size:
//
//   - Allocation: a volatile heap/stack segment is an anonymous file
//     with a single contiguous extent; carving it out is one buddy run
//     allocation plus one O(1) epoch erase — no per-page work.
//   - Mapping: addresses are physically based (PBM, §4.2): the virtual
//     address of a byte is its physical address plus a fixed offset, so
//     every process maps a file at the same address and translations
//     can be shared. A mapping is installed either as one range-table
//     entry per extent (Ranges mode, the §4.3 hardware) or by linking
//     pre-created page-table subtrees (SharedPT mode, §3.1/Figure 3) —
//     both independent of the number of pages.
//   - Protection: one flags update per extent entry — file grain, never
//     page grain.
//   - Reclamation: memory returns only when a file's last mapping and
//     link disappear; under pressure whole discardable files are
//     deleted. Nothing scans pages.
//   - Erasure: freed extents are erased with the O(1) epoch mechanism.
//
// The package deliberately has no page-fault handler: every mapping is
// usable in full immediately after the O(1) map operation. The
// baseline that pays per-page costs for the same workloads is package
// vm.
package core

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/metrics"
	"repro/internal/pagetable"
	"repro/internal/rangetable"
	"repro/internal/sim"
	"repro/internal/tier"
	"repro/internal/tlb"
)

// PBMBase is the fixed offset of physically based mappings: the
// virtual address of physical byte p is PBMBase + p. It sits far above
// any physical address yet within 4-level (48-bit) reach.
const PBMBase = mem.VirtAddr(1) << 46

// VAForPhys returns the PBM virtual address of a physical address.
func VAForPhys(pa mem.PhysAddr) mem.VirtAddr { return PBMBase + mem.VirtAddr(pa) }

// PhysForVA inverts VAForPhys.
func PhysForVA(va mem.VirtAddr) (mem.PhysAddr, error) {
	if va < PBMBase {
		return 0, fmt.Errorf("core: %#x is not a PBM address", uint64(va))
	}
	return mem.PhysAddr(va - PBMBase), nil
}

// TranslationMode selects how processes translate PBM addresses.
type TranslationMode int

const (
	// Ranges uses the proposed range-translation hardware: one
	// (base, limit, offset) entry per extent plus a range TLB.
	Ranges TranslationMode = iota
	// SharedPT uses conventional page-table hardware with the paper's
	// software O(1) tricks: pre-created per-file page tables whose
	// aligned subtrees are linked into each process with single entry
	// writes.
	SharedPT
)

// String names the mode.
func (m TranslationMode) String() string {
	switch m {
	case Ranges:
		return "ranges"
	case SharedPT:
		return "shared-pt"
	default:
		return fmt.Sprintf("TranslationMode(%d)", int(m))
	}
}

// chunkPages is the subtree-link granularity in SharedPT mode: one
// level-2 entry spans 512 pages (2 MiB). Files are padded to this
// multiple in SharedPT mode — the paper's explicit space-for-time
// trade.
const chunkPages = 512

// Options configure a System.
type Options struct {
	// FSBase/FSFrames locate the file-only-memory store. If FSFrames
	// is zero the system uses the machine's whole NVM region.
	FSBase   mem.Frame
	FSFrames uint64
	// PTPoolBase/PTPoolFrames locate the pool for page-table nodes in
	// SharedPT mode. If zero, the system uses the DRAM region.
	PTPoolBase   mem.Frame
	PTPoolFrames uint64
	// RTLBEntries sizes each process's range TLB (0 = default).
	RTLBEntries int
}

// System is one machine's file-only-memory manager.
type System struct {
	clock   *sim.Clock
	params  *sim.Params
	memory  *mem.Memory
	machine *sim.Machine

	// Per-CPU translation caches, shared by every process scheduled on
	// the CPU (entries are tagged by process id): tlbs for SharedPT
	// processes, rtlbs for Ranges processes.
	tlbs  []*tlb.TLB
	rtlbs []*rangetable.RTLB

	// nextCPU round-robins new processes across CPUs.
	nextCPU int

	fs *memfs.FS

	// ptPool allocates page-table nodes (SharedPT mode).
	ptPool *ptPool

	// Pre-created master page tables for PBM space, one per
	// protection class (the paper's "two sets of page tables to allow
	// different permissions"). Chunks are populated on first use and
	// then shared by every process and every later mapping — the
	// persistent pre-created page tables of §3.1.
	masters map[pagetable.Flags]*masterTable

	rtlbEntries int

	// tier is the optional migration engine (AttachTier). The system —
	// not the FS — is its backend: range translations address whole
	// extents, so migration moves extents, not single pages.
	tier *tier.Engine

	procs int

	// live registers every non-exited process by PID so the invariant
	// checker can audit range tables, linked page tables, and per-CPU
	// translation caches machine-wide. PIDs are never reused, so a
	// cached translation tagged with a PID absent here is provably
	// stale.
	live map[int]*Process

	stats *metrics.Set
	// Per-operation counters, resolved on first use.
	cAllocs, cMaps, cUnmaps, cChunkLinks metrics.Lazy
}

// masterTable is a pre-created page table covering PBM space for one
// protection class.
type masterTable struct {
	table  *pagetable.Table
	prot   pagetable.Flags
	chunks map[mem.VirtAddr]bool // populated 2 MiB chunks
}

// NewSystem creates a file-only-memory system on the given machine.
// The CPU set is derived from clock (see sim.MachineOf): the kernel
// clock of a sim.Machine yields its CPUs, a free-standing clock models
// a single-CPU machine.
func NewSystem(clock *sim.Clock, params *sim.Params, memory *mem.Memory, opts Options) (*System, error) {
	machine := sim.MachineOf(clock, params)
	base, frames := opts.FSBase, opts.FSFrames
	if frames == 0 {
		nvm, ok := memory.Region(mem.NVM)
		if !ok {
			return nil, fmt.Errorf("core: machine has no NVM region and no explicit FS range")
		}
		base, frames = nvm.Start, nvm.Count
	}
	fs, err := memfs.New("fom", memfs.Extent, clock, params, memory, base, frames)
	if err != nil {
		return nil, err
	}
	ptBase, ptFrames := opts.PTPoolBase, opts.PTPoolFrames
	if ptFrames == 0 {
		dram, ok := memory.Region(mem.DRAM)
		if !ok {
			return nil, fmt.Errorf("core: machine has no DRAM region for page tables")
		}
		ptBase, ptFrames = dram.Start, dram.Count
	}
	pool, err := newPTPool(clock, params, ptBase, ptFrames)
	if err != nil {
		return nil, err
	}
	s := &System{
		clock:       clock,
		params:      params,
		memory:      memory,
		machine:     machine,
		fs:          fs,
		ptPool:      pool,
		masters:     make(map[pagetable.Flags]*masterTable),
		rtlbEntries: opts.RTLBEntries,
		live:        make(map[int]*Process),
		stats:       metrics.NewSet(),
	}
	for _, cpu := range machine.CPUs() {
		s.tlbs = append(s.tlbs, tlb.New(cpu, params, tlb.DefaultConfig()))
		s.rtlbs = append(s.rtlbs, rangetable.NewRTLB(cpu, params, opts.RTLBEntries))
	}
	machine.RegisterInvariants("core", s.CheckInvariants)
	machine.RegisterStats("core", s.stats)
	return s, nil
}

// Machine returns the machine the system runs on.
func (s *System) Machine() *sim.Machine { return s.machine }

// TLBFor returns the given CPU's page TLB (SharedPT processes).
func (s *System) TLBFor(cpu *sim.CPU) *tlb.TLB { return s.tlbs[cpu.ID()] }

// RTLBFor returns the given CPU's range TLB (Ranges processes).
func (s *System) RTLBFor(cpu *sim.CPU) *rangetable.RTLB { return s.rtlbs[cpu.ID()] }

// Clock returns the system's virtual clock.
func (s *System) Clock() *sim.Clock { return s.clock }

// Params returns the system's cost table.
func (s *System) Params() *sim.Params { return s.params }

// Memory returns the machine's physical memory.
func (s *System) Memory() *mem.Memory { return s.memory }

// FS exposes the file-only-memory file system for named files,
// directories and durability control.
func (s *System) FS() *memfs.FS { return s.fs }

// Stats exposes counters: "maps", "unmaps", "allocs", "chunk_builds",
// "chunk_links".
func (s *System) Stats() *metrics.Set { return s.stats }

// FreeFrames returns the free frames in the file-only-memory store.
func (s *System) FreeFrames() uint64 { return s.fs.FreeFrames() }

// DiscardUnderPressure reclaims whole discardable files until want
// frames are freed (§3.1's transcendent-memory-style reclamation).
func (s *System) DiscardUnderPressure(want uint64) (uint64, error) {
	return s.fs.DiscardForPressure(want)
}

// master returns the pre-created master table for a protection class,
// creating an empty one on first use. cur is the CPU doing the work.
func (s *System) master(cur *sim.CPU, prot pagetable.Flags) (*masterTable, error) {
	if m, ok := s.masters[prot]; ok {
		return m, nil
	}
	t, err := pagetable.New(cur, s.params, s.ptPool.nodes, pagetable.Levels4)
	if err != nil {
		return nil, err
	}
	m := &masterTable{table: t, prot: prot, chunks: make(map[mem.VirtAddr]bool)}
	s.masters[prot] = m
	return m, nil
}

// ensureChunk populates one 2 MiB PBM chunk of a master table. The
// first caller pays the 512 PTE writes; the table persists (it lives
// in the system, conceptually in NVM), so every later map of the same
// physical chunk — by any process, ever — is a single link.
func (s *System) ensureChunk(m *masterTable, cur *sim.CPU, chunkVA mem.VirtAddr) error {
	if m.chunks[chunkVA] {
		return nil
	}
	pa, err := PhysForVA(chunkVA)
	if err != nil {
		return err
	}
	if err := m.table.MapRange(cur, chunkVA, pa.Frame(), chunkPages, m.prot); err != nil {
		return err
	}
	m.chunks[chunkVA] = true
	s.stats.Counter("chunk_builds").Inc()
	return nil
}

// CreateContiguousFile creates a named single-extent file of the given
// page count, optionally padded to the SharedPT chunk granularity so it
// can be mapped with subtree links. The allocation is O(1) in size.
func (s *System) CreateContiguousFile(path string, pages uint64, opts memfs.CreateOptions, chunkAligned bool) (*memfs.File, error) {
	alloc := pages
	if chunkAligned {
		if rem := pages % chunkPages; rem != 0 {
			alloc += chunkPages - rem
		}
	}
	f, err := s.fs.Create(path, opts)
	if err != nil {
		return nil, err
	}
	if err := f.EnsureContiguous(alloc); err != nil {
		_ = f.Close()
		_ = s.fs.Unlink(path)
		return nil, err
	}
	return f, nil
}

// Remount recovers the system after a crash: persistent files survive,
// volatile files (and all processes) are gone. Master page tables are
// rebuilt lazily — or, in the paper's fully persistent design, could
// themselves be stored in NVM; the simulator keeps them, modelling
// that.
func (s *System) Remount() (int, error) {
	return s.fs.Remount()
}
