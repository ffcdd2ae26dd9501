package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/pagetable"
	"repro/internal/sim"
	"repro/internal/usermode"
	"repro/internal/vm"
	"repro/internal/workload"
)

var tenantChurn = spec{
	name: "tenant-churn",
	why: "Many small ops across CPUs: 4 simulated CPUs in pair sync groups, serial run slot, " +
		"tenants placed round-robin; each spawns (forking a per-CPU template where the " +
		"configuration has fork), maps the shared object, runs heap alloc/touch/free bursts and " +
		"exits. Loads the sync gate, IPIs and shootdown coalescing, fork/exit teardown, heap, the " +
		"grant queue, Go GC and the simulated-clock hot path; map-populate's single CPU never " +
		"reaches the gate.",
	setup: setupTenantChurn,
	canon: tcTraces,
}

// Tenant-churn sizing, after the tenants experiment: tcTenants tenants
// per round, each with tcBursts alloc/touch/free bursts of up to
// tcHeapPages pages, a tcSharedPages-page shared object per CPU of
// which each tenant reads tcSharedHot pages. Rounds cycle through
// tcTraces seeded traces; the canonical measurement covers one pass,
// so its medians do not hang on one trace's rare heavy tenants.
const (
	tcCPUs        = 4
	tcTraces      = 8
	tcTenants     = 1024
	tcBursts      = 3
	tcHeapPages   = 48
	tcSharedPages = 64
	tcSharedHot   = 8
	tcCPUFrames   = uint64(64) << 20 >> mem.FrameShift // per-CPU store or pool
)

var ro = pagetable.FlagRead | pagetable.FlagUser

// tcConfig is one configuration on its own 4-CPU machine.
type tcConfig interface {
	machine() *sim.Machine
	// tenant runs one tenant's ops on CPU c, from its RunParallel task.
	tenant(r *run, c *sim.CPU, ti int, ops []workload.TenantOp) error
	counters(c map[string]uint64)
}

type tenantChurnInst struct {
	traces [][][]workload.TenantOp
	next   int // index of the next round's trace
	cfgs   []tcConfig
}

// pairGroups partitions the CPUs into {2i, 2i+1} sync groups: tenants
// interact only with their pair partner.
func pairGroups(n int) [][]int {
	var g [][]int
	for i := 0; i+1 < n; i += 2 {
		g = append(g, []int{i, i + 1})
	}
	return g
}

func newTCMachine(seed uint64) (*sim.Machine, *sim.Params) {
	m, p := newMachine(tcCPUs, seed)
	m.SetSyncGroups(pairGroups(tcCPUs))
	return m, p
}

func setupTenantChurn(seed uint64, tiny bool, tr *tracer) (instance, error) {
	tenants, traces := tcTenants, tcTraces
	if tiny {
		tenants, traces = 16, 2
	}
	w := &tenantChurnInst{}
	rng := sim.NewRNG(seed)
	tr.begin(0, cWorkloadGen)
	for i := 0; i < traces; i++ {
		t, err := workload.TenantTrace(workload.TenantConfig{
			Tenants: tenants, Bursts: tcBursts, HeapPages: tcHeapPages, Seed: rng.Uint64(),
		})
		if err != nil {
			tr.end(0)
			return nil, err
		}
		w.traces = append(w.traces, t)
	}
	tr.end(0)
	newConfigs := []func(uint64) (tcConfig, error){
		newTCVM,
		newTCFOM,
		func(s uint64) (tcConfig, error) { return newTCCore(s, core.SharedPT) },
		func(s uint64) (tcConfig, error) { return newTCCore(s, core.Ranges) },
		newTCUM,
	}
	for i, b := range newConfigs {
		c, err := b(seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", configs[i], err)
		}
		w.cfgs = append(w.cfgs, c)
	}
	// Warm every configuration with a sixteenth of the tenants, so lazy
	// host-side set-up is done before timing.
	if err := w.churn(&run{tr: tr}, w.traces[0][:tenants/16]); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return w, nil
}

func (w *tenantChurnInst) round(r *run) error {
	t := w.traces[w.next%len(w.traces)]
	w.next++
	return w.churn(r, t)
}

// churn runs the tenants through every configuration, one RunParallel
// phase each.
func (w *tenantChurnInst) churn(r *run, traces [][]workload.TenantOp) error {
	for ci, cfg := range w.cfgs {
		m := cfg.machine()
		n := m.NumCPUs()
		r.tr.begin(0, cSimRunParallel)
		err := m.RunParallel(func(c *sim.CPU) error {
			for ti := c.ID(); ti < len(traces); ti += n {
				if err := cfg.tenant(r, c, ti, traces[ti]); err != nil {
					return err
				}
			}
			return nil
		})
		r.tr.end(0)
		if err != nil {
			return fmt.Errorf("%s: %w", configs[ci], err)
		}
	}
	return nil
}

func (w *tenantChurnInst) simNanos() map[string]int64 {
	out := make(map[string]int64, len(w.cfgs))
	for i, c := range w.cfgs {
		out[configs[i]] = int64(c.machine().Time())
	}
	return out
}

func (w *tenantChurnInst) counters(c map[string]uint64) {
	for _, cfg := range w.cfgs {
		cfg.counters(c)
	}
}

func (w *tenantChurnInst) machines() []*sim.Machine {
	out := make([]*sim.Machine, len(w.cfgs))
	for i, c := range w.cfgs {
		out[i] = c.machine()
	}
	return out
}

func (w *tenantChurnInst) state(d *digest) {
	for _, cfg := range w.cfgs {
		d.addState(cfg.machine().CaptureState())
	}
}

// call issues one op of lane ln on CPU c: a span around f, the op's
// simulated latency into the digest, and its accounting.
func (r *run) call(ln int, c *sim.CPU, id callID, f func() error) error {
	t0 := c.Now()
	r.tr.begin(ln, id)
	err := f()
	r.tr.end(ln)
	r.lat(ln, c.Now()-t0)
	return r.done(err)
}

// partner returns the pair partner of CPU id on an n-CPU machine, or
// -1 when it is unpaired.
func partner(id, n int) int {
	if p := id ^ 1; p < n {
		return p
	}
	return -1
}

// tcVM is the baseline: a populated read-only template per CPU that
// every tenant forks (the shared object is the inherited template
// memory), anonymous heap bursts alternating populate and demand
// faults, per-page teardown with coalesced shootdowns.
type tcVM struct {
	m      *sim.Machine
	k      *vm.Kernel
	tmpl   []*vm.AddressSpace
	tmplVA []mem.VirtAddr
	acc    map[string]uint64 // counters of destroyed address spaces
}

func newTCVM(seed uint64) (tcConfig, error) {
	m, p := newTCMachine(seed)
	frames := tcCPUFrames * tcCPUs
	memory, err := mem.New(m.Clock(), p, mem.Config{DRAMFrames: frames})
	if err != nil {
		return nil, err
	}
	k, err := vm.NewKernel(m.Clock(), p, memory, vm.Config{PoolFrames: frames})
	if err != nil {
		return nil, err
	}
	if err := k.CarveArenas(tcCPUFrames); err != nil {
		return nil, err
	}
	b := &tcVM{m: m, k: k, tmpl: make([]*vm.AddressSpace, tcCPUs), tmplVA: make([]mem.VirtAddr, tcCPUs),
		acc: make(map[string]uint64)}
	err = m.RunParallel(func(c *sim.CPU) error {
		as, err := k.NewAddressSpaceOn(c)
		if err != nil {
			return err
		}
		va, err := as.Mmap(vm.MmapRequest{Pages: tcSharedPages, Prot: ro, Anon: true, Private: true, Populate: true})
		b.tmpl[c.ID()], b.tmplVA[c.ID()] = as, va
		return err
	})
	return b, err
}

func (b *tcVM) machine() *sim.Machine { return b.m }

func (b *tcVM) tenant(r *run, c *sim.CPU, ti int, ops []workload.TenantOp) error {
	ln := 1 + c.ID()
	var space *vm.AddressSpace
	var heapVA mem.VirtAddr
	var heapPages uint64
	touch := func(va mem.VirtAddr, write bool) error {
		return r.call(ln, c, cVMTouch, func() error { return space.Touch(va, write) })
	}
	for _, op := range ops {
		var err error
		switch op.Kind {
		case workload.TenantSpawn:
			err = r.call(ln, c, cVMFork, func() (err error) {
				space, err = b.tmpl[c.ID()].ForkOn(c)
				return err
			})
			if p := partner(c.ID(), b.m.NumCPUs()); err == nil && ti%2 == 1 && p >= 0 {
				space.MarkRanOn(b.m.CPU(p))
			}
		case workload.TenantMapShared:
			for p := uint64(0); p < tcSharedHot && err == nil; p++ {
				err = touch(b.tmplVA[c.ID()]+mem.VirtAddr(p*pageSize), false)
			}
		case workload.TenantAlloc:
			heapPages = op.Pages
			err = r.call(ln, c, cVMMmap, func() (err error) {
				heapVA, err = space.Mmap(vm.MmapRequest{Pages: op.Pages, Prot: rw, Anon: true, Private: true,
					Populate: ti%4 < 2})
				return err
			})
			if n := b.k.TrackedPages(); n > r.trackedPk {
				r.trackedPk = n
			}
		case workload.TenantTouch:
			for p := uint64(0); p < op.Pages && err == nil; p++ {
				err = touch(heapVA+mem.VirtAddr(p*pageSize), true)
			}
		case workload.TenantFree:
			err = r.call(ln, c, cVMMunmap, func() error { return space.Munmap(heapVA, heapPages) })
		case workload.TenantExit:
			b.acc["vm.populated_pages"] += space.Stats().Value("populated_pages")
			addPageTable(b.acc, space.PageTable().Stats())
			err = r.call(ln, c, cVMDestroy, space.Destroy)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (b *tcVM) counters(c map[string]uint64) {
	for k, v := range b.acc {
		c[k] += v
	}
	c["vm.minor_faults"] += b.k.Stats().Value("minor_faults")
	// Arena allocators are internal to vm; only the global pool, which
	// the arenas were carved from, is reachable.
	ps := b.k.Pool().Stats()
	c["buddy.allocs"] += ps.Value("allocs")
	c["buddy.splits"] += ps.Value("splits")
	c["buddy.coalesces"] += ps.Value("coalesces")
	for _, cpu := range b.m.CPUs() {
		addTLB(c, b.k.TLBFor(cpu).Stats())
	}
}

// tcFOM is file-only memory through the syscall interface: a per-CPU
// extent store, a tenant directory per tenant, the shared object opened
// by path, and heap bursts as anonymous single-extent files.
type tcFOM struct {
	m   *sim.Machine
	fss []*memfs.FS
}

func newTCFOM(seed uint64) (tcConfig, error) {
	m, p := newTCMachine(seed)
	f := &tcFOM{m: m}
	for _, c := range m.CPUs() {
		memory, err := mem.New(c.Clock(), p, mem.Config{NVMFrames: tcCPUFrames})
		if err != nil {
			return nil, err
		}
		nvm, _ := memory.Region(mem.NVM)
		fs, err := memfs.New(fmt.Sprintf("fom%d", c.ID()), memfs.Extent, c.Clock(), p, memory, nvm.Start, nvm.Count)
		if err != nil {
			return nil, err
		}
		sh, err := fs.Create("/shared", memfs.CreateOptions{})
		if err != nil {
			return nil, err
		}
		if err := sh.EnsureContiguous(tcSharedPages); err != nil {
			return nil, err
		}
		f.fss = append(f.fss, fs)
	}
	return f, nil
}

func (f *tcFOM) machine() *sim.Machine { return f.m }

func (f *tcFOM) tenant(r *run, c *sim.CPU, ti int, ops []workload.TenantOp) error {
	ln := 1 + c.ID()
	fs := f.fss[c.ID()]
	dir := fmt.Sprintf("/t%d", ti)
	var shared, heapFile *memfs.File
	var one [1]byte
	for _, op := range ops {
		var err error
		switch op.Kind {
		case workload.TenantSpawn:
			err = r.call(ln, c, cMemfsCreate, func() error { return fs.Mkdir(dir) })
		case workload.TenantMapShared:
			err = r.call(ln, c, cMemfsOpen, func() (err error) {
				shared, err = fs.Open("/shared")
				return err
			})
			for p := uint64(0); p < tcSharedHot && err == nil; p++ {
				err = r.call(ln, c, cMemfsRead, func() error {
					_, err := shared.ReadAt(one[:], p*pageSize)
					return err
				})
			}
		case workload.TenantAlloc:
			err = r.call(ln, c, cMemfsCreate, func() (err error) {
				if heapFile, err = fs.CreateTemp("heap", memfs.CreateOptions{}); err != nil {
					return err
				}
				return heapFile.EnsureContiguous(op.Pages)
			})
		case workload.TenantTouch:
			for p := uint64(0); p < op.Pages && err == nil; p++ {
				err = r.call(ln, c, cMemfsWrite, func() error {
					_, err := heapFile.WriteAt(one[:], p*pageSize)
					return err
				})
			}
		case workload.TenantFree:
			err = r.call(ln, c, cMemfsRemove, heapFile.Close)
		case workload.TenantExit:
			err = r.call(ln, c, cMemfsRemove, func() error {
				if err := shared.Close(); err != nil {
					return err
				}
				return fs.Unlink(dir)
			})
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (f *tcFOM) counters(c map[string]uint64) {
	for _, fs := range f.fss {
		c["memfs.extent_allocs"] += fs.Stats().Value("extent_allocs")
	}
}

// tcCore is file-only memory with PBM translations: a per-CPU
// core.System, a per-CPU shared file every tenant maps in O(extents),
// heap bursts as volatile allocations.
type tcCore struct {
	m      *sim.Machine
	mode   core.TranslationMode
	syss   []*core.System
	shared []*memfs.File
	acc    map[string]uint64 // counters of exited processes
}

func newTCCore(seed uint64, mode core.TranslationMode) (tcConfig, error) {
	m, p := newTCMachine(seed)
	t := &tcCore{m: m, mode: mode, acc: make(map[string]uint64)}
	for _, c := range m.CPUs() {
		memory, err := mem.New(c.Clock(), p, mem.Config{DRAMFrames: tcCPUFrames, NVMFrames: tcCPUFrames})
		if err != nil {
			return nil, err
		}
		sys, err := core.NewSystem(c.Clock(), p, memory, core.Options{})
		if err != nil {
			return nil, err
		}
		sh, err := sys.CreateContiguousFile("/shared", tcSharedPages, memfs.CreateOptions{Mode: ro}, mode == core.SharedPT)
		if err != nil {
			return nil, err
		}
		t.syss = append(t.syss, sys)
		t.shared = append(t.shared, sh)
	}
	return t, nil
}

func (t *tcCore) machine() *sim.Machine { return t.m }

func (t *tcCore) tenant(r *run, c *sim.CPU, ti int, ops []workload.TenantOp) error {
	ln := 1 + c.ID()
	sys := t.syss[c.ID()]
	var p *core.Process
	var sharedMap, heapMap *core.Mapping
	touch := func(va mem.VirtAddr, write bool) error {
		return r.call(ln, c, cCoreTouch, func() error { return p.Touch(va, write) })
	}
	for _, op := range ops {
		var err error
		switch op.Kind {
		case workload.TenantSpawn:
			err = r.call(ln, c, cCoreSpawn, func() (err error) {
				p, err = sys.NewProcessOn(c, t.mode)
				return err
			})
			if q := partner(c.ID(), t.m.NumCPUs()); err == nil && ti%2 == 1 && q >= 0 {
				p.MarkRanOn(t.m.CPU(q))
			}
		case workload.TenantMapShared:
			err = r.call(ln, c, cCoreMapFile, func() (err error) {
				sharedMap, err = p.MapFile(t.shared[c.ID()], ro)
				return err
			})
			for pg := uint64(0); pg < tcSharedHot && err == nil; pg++ {
				err = touch(sharedMap.Base()+mem.VirtAddr(pg*pageSize), false)
			}
		case workload.TenantAlloc:
			err = r.call(ln, c, cCoreAlloc, func() (err error) {
				heapMap, err = p.AllocVolatile(op.Pages, rw)
				return err
			})
		case workload.TenantTouch:
			for pg := uint64(0); pg < op.Pages && err == nil; pg++ {
				err = touch(heapMap.Base()+mem.VirtAddr(pg*pageSize), true)
			}
		case workload.TenantFree:
			err = r.call(ln, c, cCoreUnmap, func() error { return p.Unmap(heapMap) })
		case workload.TenantExit:
			if t.mode == core.SharedPT {
				addPageTable(t.acc, p.PageTable().Stats())
			} else {
				t.acc["rangetable.inserts"] += p.RangeTable().Stats().Value("inserts")
			}
			err = r.call(ln, c, cCoreExit, p.Exit)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (t *tcCore) counters(c map[string]uint64) {
	for k, v := range t.acc {
		c[k] += v
	}
	for i, sys := range t.syss {
		cpu := t.m.CPU(i)
		c["core.chunk_links"] += sys.Stats().Value("chunk_links")
		c["memfs.extent_allocs"] += sys.FS().Stats().Value("extent_allocs")
		if t.mode == core.SharedPT {
			addTLB(c, sys.TLBFor(cpu).Stats())
			continue
		}
		rs := sys.RTLBFor(cpu).Stats()
		c["rangetable.rtlb_hits"] += rs.Value("hits")
		c["rangetable.rtlb_lookups"] += rs.Value("hits") + rs.Value("misses")
	}
}

// tcUM is user-mode software-managed memory: a per-CPU grant table
// and pool, a per-CPU shared segment held alive by a template process,
// a heap per tenant over its granted extents, exit revoking the
// tenant's grants.
type tcUM struct {
	m    *sim.Machine
	gts  []*usermode.GrantTable
	segs []*usermode.SharedSeg
}

func newTCUM(seed uint64) (tcConfig, error) {
	m, p := newTCMachine(seed)
	u := &tcUM{m: m}
	for _, c := range m.CPUs() {
		memory, err := mem.New(c.Clock(), p, mem.Config{DRAMFrames: tcCPUFrames})
		if err != nil {
			return nil, err
		}
		gt, err := usermode.NewGrantTable(c.Clock(), p, memory, usermode.Config{PoolFrames: tcCPUFrames})
		if err != nil {
			return nil, err
		}
		tmpl, err := gt.NewProcessOn(c)
		if err != nil {
			return nil, err
		}
		seg, err := gt.NewShared(tmpl, tcSharedPages)
		if err != nil {
			return nil, err
		}
		u.gts = append(u.gts, gt)
		u.segs = append(u.segs, seg)
	}
	return u, nil
}

func (u *tcUM) machine() *sim.Machine { return u.m }

func (u *tcUM) tenant(r *run, c *sim.CPU, ti int, ops []workload.TenantOp) error {
	ln := 1 + c.ID()
	seg := u.segs[c.ID()]
	var p *usermode.Process
	var h *heap.Heap
	var addr mem.VirtAddr
	var one [1]byte
	access := func(a mem.VirtAddr, write bool) error {
		return r.call(ln, c, cUMAccess, func() error {
			if write {
				return p.WriteBuf(a, one[:])
			}
			return p.ReadBuf(a, one[:])
		})
	}
	for _, op := range ops {
		var err error
		switch op.Kind {
		case workload.TenantSpawn:
			err = r.call(ln, c, cUMSpawn, func() (err error) {
				p, err = u.gts[c.ID()].NewProcessOn(c)
				return err
			})
			if err == nil {
				h = heap.NewOn(p)
			}
		case workload.TenantMapShared:
			err = r.call(ln, c, cUMMapShared, func() error { return p.MapShared(seg) })
			for pg := uint64(0); pg < tcSharedHot && err == nil; pg++ {
				err = access(seg.Base()+mem.VirtAddr(pg*pageSize), false)
			}
		case workload.TenantAlloc:
			err = r.call(ln, c, cHeapAlloc, func() (err error) {
				addr, err = h.Alloc(op.Pages * pageSize)
				return err
			})
		case workload.TenantTouch:
			for pg := uint64(0); pg < op.Pages && err == nil; pg++ {
				err = access(addr+mem.VirtAddr(pg*pageSize), true)
			}
		case workload.TenantFree:
			err = r.call(ln, c, cHeapFree, func() error { return h.Free(addr) })
		case workload.TenantExit:
			err = r.call(ln, c, cUMExit, p.Exit)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (u *tcUM) counters(c map[string]uint64) {
	for _, gt := range u.gts {
		addGrantTable(c, gt.Stats())
	}
}
