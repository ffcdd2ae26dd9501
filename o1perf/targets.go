package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/metrics"
	"repro/internal/pagetable"
	"repro/internal/sim"
	"repro/internal/usermode"
	"repro/internal/vm"
)

// Machine sizing for the single-CPU workloads: the baseline's 2 GiB
// anonymous pool, and matching stores for the other configurations.
const (
	poolFrames   = uint64(2) << 30 >> mem.FrameShift
	ptPoolFrames = uint64(256) << 20 >> mem.FrameShift
)

const pageSize = mem.FrameSize

var rw = pagetable.FlagRead | pagetable.FlagWrite | pagetable.FlagUser

// newMachine builds an n-CPU machine with host-parallel simulation
// off: the sync gate still orders multi-CPU sections, one context at a
// time.
func newMachine(n int, seed uint64) (*sim.Machine, *sim.Params) {
	p := sim.DefaultParams()
	m := sim.NewMachine(&p, n, seed)
	m.SetHostParallel(false)
	return m, &p
}

// target is one configuration behind the object operations the
// single-CPU workloads issue: map an object, write or read byte 0 of
// one of its pages, unmap it. Objects are named by the benchmark's index.
type target interface {
	machine() *sim.Machine
	mapObj(r *run, i int, pages uint64, populate bool) error
	write(r *run, i int, page uint64, v byte) error
	read(r *run, i int, page uint64) (byte, error)
	unmap(r *run, i int) error
	counters(c map[string]uint64)
}

// newTargets builds the five configurations, each on its own
// single-CPU machine, able to hold objects indices 0..objects-1.
// mapFiles makes pbm and ranges map named contiguous files (the O(1)
// MapFile path) instead of allocating volatile memory.
func newTargets(seed uint64, objects int, mapFiles bool) ([]target, error) {
	b, err := newVMTarget(seed, objects)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	f, err := newFOMTarget(seed, objects)
	if err != nil {
		return nil, fmt.Errorf("fom: %w", err)
	}
	p, err := newCoreTarget(seed, objects, core.SharedPT, mapFiles)
	if err != nil {
		return nil, fmt.Errorf("pbm: %w", err)
	}
	rg, err := newCoreTarget(seed, objects, core.Ranges, mapFiles)
	if err != nil {
		return nil, fmt.Errorf("ranges: %w", err)
	}
	u, err := newUMTarget(seed, objects)
	if err != nil {
		return nil, fmt.Errorf("usermode: %w", err)
	}
	return []target{b, f, p, rg, u}, nil
}

// addTLB adds one TLB's lookups, hits and flushes.
func addTLB(c map[string]uint64, s *metrics.Set) {
	hits := s.Value("l1_hits") + s.Value("l2_hits")
	c["tlb.hits"] += hits
	c["tlb.lookups"] += hits + s.Value("misses")
	c["tlb.flushes"] += s.Value("flushes")
}

// addPageTable adds one page table's counters.
func addPageTable(c map[string]uint64, s *metrics.Set) {
	c["pagetable.pte_writes"] += s.Value("pte_writes")
	c["pagetable.node_allocs"] += s.Value("node_allocs")
	c["pagetable.walks"] += s.Value("walks")
	c["core.subtree_links"] += s.Value("subtree_links")
}

// vmTarget is the baseline: anonymous private mappings in one address
// space, populated or demand-faulted.
type vmTarget struct {
	m     *sim.Machine
	k     *vm.Kernel
	as    *vm.AddressSpace
	va    []mem.VirtAddr
	pages []uint64
}

func newVMTarget(seed uint64, objects int) (*vmTarget, error) {
	m, p := newMachine(1, seed)
	memory, err := mem.New(m.Clock(), p, mem.Config{DRAMFrames: poolFrames})
	if err != nil {
		return nil, err
	}
	k, err := vm.NewKernel(m.Clock(), p, memory, vm.Config{PoolFrames: poolFrames})
	if err != nil {
		return nil, err
	}
	as, err := k.NewAddressSpace()
	if err != nil {
		return nil, err
	}
	return &vmTarget{m: m, k: k, as: as, va: make([]mem.VirtAddr, objects), pages: make([]uint64, objects)}, nil
}

func (t *vmTarget) machine() *sim.Machine { return t.m }

func (t *vmTarget) mapObj(r *run, i int, pages uint64, populate bool) error {
	r.tr.begin(0, cVMMmap)
	va, err := t.as.Mmap(vm.MmapRequest{Pages: pages, Prot: rw, Anon: true, Private: true, Populate: populate})
	r.tr.end(0)
	t.va[i], t.pages[i] = va, pages
	if n := t.k.TrackedPages(); n > r.trackedPk {
		r.trackedPk = n
	}
	return err
}

func (t *vmTarget) write(r *run, i int, page uint64, v byte) error {
	r.tr.begin(0, cVMTouch)
	err := t.as.WriteByteAt(t.va[i]+mem.VirtAddr(page*pageSize), v)
	r.tr.end(0)
	return err
}

func (t *vmTarget) read(r *run, i int, page uint64) (byte, error) {
	r.tr.begin(0, cVMTouch)
	b, err := t.as.ReadByteAt(t.va[i] + mem.VirtAddr(page*pageSize))
	r.tr.end(0)
	return b, err
}

func (t *vmTarget) unmap(r *run, i int) error {
	r.tr.begin(0, cVMMunmap)
	err := t.as.Munmap(t.va[i], t.pages[i])
	r.tr.end(0)
	return err
}

func (t *vmTarget) counters(c map[string]uint64) {
	ks := t.k.Stats()
	c["vm.minor_faults"] += ks.Value("minor_faults")
	c["vm.populated_pages"] += t.as.Stats().Value("populated_pages")
	ps := t.k.Pool().Stats()
	c["buddy.allocs"] += ps.Value("allocs")
	c["buddy.splits"] += ps.Value("splits")
	c["buddy.coalesces"] += ps.Value("coalesces")
	addPageTable(c, t.as.PageTable().Stats())
	addTLB(c, t.k.TLBFor(t.m.BootCPU()).Stats())
}

// fomTarget is file-only memory through the syscall interface: every
// object is a single-extent anonymous file, every access a byte read
// or write at an offset.
type fomTarget struct {
	m     *sim.Machine
	fs    *memfs.FS
	files []*memfs.File
	buf   [1]byte
}

func newFOMTarget(seed uint64, objects int) (*fomTarget, error) {
	m, p := newMachine(1, seed)
	memory, err := mem.New(m.Clock(), p, mem.Config{NVMFrames: poolFrames})
	if err != nil {
		return nil, err
	}
	nvm, _ := memory.Region(mem.NVM)
	fs, err := memfs.New("fom", memfs.Extent, m.Clock(), p, memory, nvm.Start, nvm.Count)
	if err != nil {
		return nil, err
	}
	return &fomTarget{m: m, fs: fs, files: make([]*memfs.File, objects)}, nil
}

func (t *fomTarget) machine() *sim.Machine { return t.m }

func (t *fomTarget) mapObj(r *run, i int, pages uint64, _ bool) error {
	r.tr.begin(0, cMemfsCreate)
	f, err := t.fs.CreateTemp("obj", memfs.CreateOptions{})
	if err == nil {
		err = f.EnsureContiguous(pages)
	}
	r.tr.end(0)
	t.files[i] = f
	return err
}

func (t *fomTarget) write(r *run, i int, page uint64, v byte) error {
	t.buf[0] = v
	r.tr.begin(0, cMemfsWrite)
	_, err := t.files[i].WriteAt(t.buf[:], page*pageSize)
	r.tr.end(0)
	return err
}

func (t *fomTarget) read(r *run, i int, page uint64) (byte, error) {
	r.tr.begin(0, cMemfsRead)
	_, err := t.files[i].ReadAt(t.buf[:], page*pageSize)
	r.tr.end(0)
	return t.buf[0], err
}

func (t *fomTarget) unmap(r *run, i int) error {
	r.tr.begin(0, cMemfsRemove)
	err := t.files[i].Close()
	r.tr.end(0)
	t.files[i] = nil
	return err
}

func (t *fomTarget) counters(c map[string]uint64) {
	c["memfs.extent_allocs"] += t.fs.Stats().Value("extent_allocs")
}

// coreTarget is file-only memory with PBM translations: SharedPT
// ("pbm") or Ranges ("ranges").
type coreTarget struct {
	m        *sim.Machine
	sys      *core.System
	p        *core.Process
	mode     core.TranslationMode
	mapFiles bool
	maps     []*core.Mapping
	files    []*memfs.File
}

func newCoreTarget(seed uint64, objects int, mode core.TranslationMode, mapFiles bool) (*coreTarget, error) {
	m, p := newMachine(1, seed)
	memory, err := mem.New(m.Clock(), p, mem.Config{DRAMFrames: ptPoolFrames, NVMFrames: poolFrames})
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(m.Clock(), p, memory, core.Options{})
	if err != nil {
		return nil, err
	}
	proc, err := sys.NewProcess(mode)
	if err != nil {
		return nil, err
	}
	return &coreTarget{m: m, sys: sys, p: proc, mode: mode, mapFiles: mapFiles,
		maps: make([]*core.Mapping, objects), files: make([]*memfs.File, objects)}, nil
}

func (t *coreTarget) machine() *sim.Machine { return t.m }

func (t *coreTarget) mapObj(r *run, i int, pages uint64, _ bool) error {
	var m *core.Mapping
	var err error
	if t.mapFiles {
		r.tr.begin(0, cCoreMapFile)
		var f *memfs.File
		f, err = t.sys.CreateContiguousFile(fmt.Sprintf("/obj%d", i), pages,
			memfs.CreateOptions{Mode: rw}, t.mode == core.SharedPT)
		if err == nil {
			t.files[i] = f
			m, err = t.p.MapFile(f, rw)
		}
	} else {
		r.tr.begin(0, cCoreAlloc)
		m, err = t.p.AllocVolatile(pages, rw)
	}
	r.tr.end(0)
	t.maps[i] = m
	return err
}

func (t *coreTarget) write(r *run, i int, page uint64, v byte) error {
	r.tr.begin(0, cCoreTouch)
	va, err := t.maps[i].VAForOffset(page * pageSize)
	if err == nil {
		err = t.p.WriteByteAt(va, v)
	}
	r.tr.end(0)
	return err
}

func (t *coreTarget) read(r *run, i int, page uint64) (byte, error) {
	r.tr.begin(0, cCoreTouch)
	va, err := t.maps[i].VAForOffset(page * pageSize)
	var b byte
	if err == nil {
		b, err = t.p.ReadByteAt(va)
	}
	r.tr.end(0)
	return b, err
}

func (t *coreTarget) unmap(r *run, i int) error {
	r.tr.begin(0, cCoreUnmap)
	err := t.p.Unmap(t.maps[i])
	if f := t.files[i]; err == nil && f != nil {
		if err = f.Close(); err == nil {
			err = t.sys.FS().Unlink(fmt.Sprintf("/obj%d", i))
		}
		t.files[i] = nil
	}
	r.tr.end(0)
	t.maps[i] = nil
	return err
}

func (t *coreTarget) counters(c map[string]uint64) {
	c["core.chunk_links"] += t.sys.Stats().Value("chunk_links")
	c["memfs.extent_allocs"] += t.sys.FS().Stats().Value("extent_allocs")
	cpu := t.m.BootCPU()
	if t.mode == core.SharedPT {
		addPageTable(c, t.p.PageTable().Stats())
		addTLB(c, t.sys.TLBFor(cpu).Stats())
		return
	}
	c["rangetable.inserts"] += t.p.RangeTable().Stats().Value("inserts")
	rs := t.sys.RTLBFor(cpu).Stats()
	c["rangetable.rtlb_hits"] += rs.Value("hits")
	c["rangetable.rtlb_lookups"] += rs.Value("hits") + rs.Value("misses")
}

// umTarget is user-mode software-managed memory: objects are
// identity-mapped runs carved from the process's granted extents.
type umTarget struct {
	m    *sim.Machine
	gt   *usermode.GrantTable
	p    *usermode.Process
	regs []heap.Region
	buf  [1]byte
}

func newUMTarget(seed uint64, objects int) (*umTarget, error) {
	m, p := newMachine(1, seed)
	memory, err := mem.New(m.Clock(), p, mem.Config{DRAMFrames: poolFrames})
	if err != nil {
		return nil, err
	}
	gt, err := usermode.NewGrantTable(m.Clock(), p, memory, usermode.Config{PoolFrames: poolFrames})
	if err != nil {
		return nil, err
	}
	proc, err := gt.NewProcessOn(m.BootCPU())
	if err != nil {
		return nil, err
	}
	return &umTarget{m: m, gt: gt, p: proc, regs: make([]heap.Region, objects)}, nil
}

func (t *umTarget) machine() *sim.Machine { return t.m }

func (t *umTarget) mapObj(r *run, i int, pages uint64, _ bool) error {
	r.tr.begin(0, cUMAlloc)
	reg, err := t.p.AllocPages(pages)
	r.tr.end(0)
	t.regs[i] = reg
	return err
}

func (t *umTarget) write(r *run, i int, page uint64, v byte) error {
	t.buf[0] = v
	r.tr.begin(0, cUMAccess)
	err := t.p.WriteBuf(t.regs[i].Base()+mem.VirtAddr(page*pageSize), t.buf[:])
	r.tr.end(0)
	return err
}

func (t *umTarget) read(r *run, i int, page uint64) (byte, error) {
	r.tr.begin(0, cUMAccess)
	err := t.p.ReadBuf(t.regs[i].Base()+mem.VirtAddr(page*pageSize), t.buf[:])
	r.tr.end(0)
	return t.buf[0], err
}

func (t *umTarget) unmap(r *run, i int) error {
	r.tr.begin(0, cUMFree)
	err := t.p.FreeRegion(t.regs[i])
	r.tr.end(0)
	t.regs[i] = nil
	return err
}

func (t *umTarget) counters(c map[string]uint64) {
	addGrantTable(c, t.gt.Stats())
}

// addGrantTable adds one grant table's counters.
func addGrantTable(c map[string]uint64, s *metrics.Set) {
	c["usermode.queue_submits"] += s.Value("queue_submits")
	c["usermode.grants_installed"] += s.Value("grants_installed")
	c["usermode.kernel_transitions"] += s.Value("kernel_transitions")
}

// targetsSimNanos returns each target's machine-wide simulated time.
func targetsSimNanos(ts []target) map[string]int64 {
	out := make(map[string]int64, len(ts))
	for i, t := range ts {
		out[configs[i]] = int64(t.machine().Time())
	}
	return out
}

// targetsState folds every target machine's capture into d.
func targetsState(ts []target, d *digest) {
	for _, t := range ts {
		d.addState(t.machine().CaptureState())
	}
}

// sweep runs every machine's invariant sweep; a violation fails one
// op.
func sweep(r *run, ms []*sim.Machine) {
	for i, m := range ms {
		if err := m.CheckInvariants(); err != nil {
			r.fail(1, fmt.Errorf("%s: %w", configs[i], err))
		}
	}
}

func targetMachines(ts []target) []*sim.Machine {
	out := make([]*sim.Machine, len(ts))
	for i, t := range ts {
		out[i] = t.machine()
	}
	return out
}
