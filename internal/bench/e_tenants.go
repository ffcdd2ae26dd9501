package bench

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/usermode"
	"repro/internal/vm"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "tenants",
		Title: "sustained multi-tenant churn: fork/exec, shared objects, alloc bursts, teardown",
		Paper: "§2/§3 ('machines hosting thousands of containers'): per-op latency under consolidation-scale churn",
		Run:   tenants,
	})
}

// Tenant-driver sizing. Thousands of short-lived tenants churn through
// spawn → map-shared → alloc/touch/free bursts → exit; the experiment
// reports the per-operation simulated latency distribution for the
// baseline VM (populate and demand-paging variants) and file-only
// memory (both hardware assumptions).
const (
	tenantCount     = 2000
	tenantBursts    = 3
	tenantHeapPages = 48
)

// Sizing shared by every tenant-churn experiment: the template/shared
// object, and the private memory each CPU gets when a configuration
// runs one subsystem per CPU.
const (
	tenantTmplPages = 64 // the shared template/object every tenant maps
	tenantSharedHot = 8  // pages of the shared object each tenant touches
	tenantCPUDRAM   = uint64(256) << 20 >> mem.FrameShift
	tenantCPUNVM    = uint64(1) << 30 >> mem.FrameShift
)

// tenantPairGroups partitions the CPUs into {2i, 2i+1} sync groups:
// tenants interact only with their pair partner, so disjoint pairs
// never barrier against each other in a host-parallel phase.
func tenantPairGroups(n int) [][]int {
	var groups [][]int
	for i := 0; i+1 < n; i += 2 {
		groups = append(groups, []int{i, i + 1})
	}
	return groups
}

// mergeLatencies folds the per-CPU recorders in CPU order.
func mergeLatencies(lats []*workload.Latency) *workload.Latency {
	out := lats[0]
	for _, l := range lats[1:] {
		out.Merge(l)
	}
	return out
}

// tenantKinds is the number of TenantOpKind values (exit is last).
const tenantKinds = int(workload.TenantExit) + 1

// tenantLats is one CPU's latency recorders: the all-ops histogram
// plus one histogram per op kind — the spawn vs map vs alloc vs
// teardown split.
type tenantLats struct {
	total  workload.Latency
	byKind [tenantKinds]workload.Latency
}

func (l *tenantLats) record(k workload.TenantOpKind, d sim.Time) {
	l.total.Record(d)
	l.byKind[k].Record(d)
}

// mergeTenantLats folds the per-CPU recorders in CPU order.
func mergeTenantLats(lats []*tenantLats) *tenantLats {
	out := lats[0]
	for _, l := range lats[1:] {
		out.total.Merge(&l.total)
		for k := range out.byKind {
			out.byKind[k].Merge(&l.byKind[k])
		}
	}
	return out
}

// addKindRows appends one row per op kind to the split table.
func addKindRows(t *metrics.Table, name string, l *tenantLats) {
	for k := 0; k < tenantKinds; k++ {
		h := &l.byKind[k]
		t.AddRow(name, workload.TenantOpKind(k).String(),
			fmt.Sprint(h.Count()), fmt.Sprintf("%.1f", h.Mean()),
			fmt.Sprint(int64(h.Quantile(0.50))), fmt.Sprint(int64(h.Quantile(0.99))))
	}
}

func tenants() (*Result, error) {
	traces, err := workload.TenantTrace(workload.TenantConfig{
		Tenants: tenantCount, Bursts: tenantBursts, HeapPages: tenantHeapPages, Seed: 17,
	})
	if err != nil {
		return nil, err
	}

	table := metrics.NewTable(
		fmt.Sprintf("per-op simulated latency over %d tenants × %d bursts (ns)",
			tenantCount, tenantBursts),
		"config", "ops", "mean_ns", "p50_ns", "p99_ns", "p99.9_ns", "max_ns")

	kindTable := metrics.NewTable(
		"the same ops split by kind: where each configuration's time goes (ns)",
		"config", "op_kind", "ops", "mean_ns", "p50_ns", "p99_ns")

	// The baseline shares the standard machine's kernel, its pool
	// carved into per-CPU arenas; every other configuration gets a
	// private subsystem per CPU.
	type setup func() (*sim.Machine, []*tenantCPU, error)
	sharedVM := func(populate bool) setup {
		return func() (*sim.Machine, []*tenantCPU, error) {
			m, err := NewMachine()
			if err != nil {
				return nil, nil, err
			}
			if err := m.ShardPool(); err != nil {
				return nil, nil, err
			}
			cpus := make([]*tenantCPU, m.Sim.NumCPUs())
			for i := range cpus {
				cpus[i] = &tenantCPU{world: &vmTenants{kernel: m.Kernel, populate: populate}}
			}
			return m.Sim, cpus, nil
		}
	}
	private := func(build tenantMaker) setup {
		return func() (*sim.Machine, []*tenantCPU, error) { return privateTenants(build) }
	}
	for _, cfg := range []struct {
		name  string
		setup setup
	}{
		{"baseline_populate", sharedVM(true)},
		{"baseline_demand", sharedVM(false)},
		{"fom_ranges", private(coreTenantsOn(core.Ranges))},
		{"fom_sharedpt", private(coreTenantsOn(core.SharedPT))},
		{"usermode", private(usermodeTenantsOn)},
	} {
		machine, cpus, err := cfg.setup()
		if err != nil {
			return nil, fmt.Errorf("tenants %s: %w", cfg.name, err)
		}
		lat, err := runTenants(machine, traces, cpus, nil)
		if err != nil {
			return nil, fmt.Errorf("tenants %s: %w", cfg.name, err)
		}
		addLatencyRow(table, cfg.name, &lat.total)
		addKindRows(kindTable, cfg.name, lat)
	}

	return &Result{
		ID:     "tenants",
		Title:  "sustained multi-tenant churn",
		Paper:  "§2/§3 consolidation premise",
		Tables: []*metrics.Table{table, kindTable},
		Notes: []string{
			"each tenant forks from its CPU's 64-page template (the shared object), touches 8 shared pages, runs alloc/touch/free bursts over an anonymous heap, and exits; odd tenants run a thread on the pair-partner CPU, so their teardowns pay real cross-CPU shootdowns",
			"the baseline pays per-page fork copies, per-page populate or demand faults, and per-page teardown; file-only memory spawns a fresh process (no per-page fork cost), maps the shared object in O(extents), and allocates/frees whole files",
			"usermode spawn includes the up-front grant batch (one queue round trip + grant install for 512 pages); map-shared is one grant-table install; alloc/free are pure user-level free-list operations with no kernel involvement; exit revokes the tenant's grants in O(grants) — and there are no TLBs in this world, so the odd tenants' partner threads cost nothing to tear down",
			"tenants are CPU-local by construction (per-CPU templates, arenas, and file systems), so pair sync groups let disjoint pairs proceed without ever synchronizing — the sharded-sync-domain scaling case",
			"with multiple CPUs the max column includes cross-CPU rendezvous: an IPI merges the sender's clock with its partner's, so one op absorbs the pair's clock skew",
		},
	}, nil
}

func addLatencyRow(t *metrics.Table, name string, l *workload.Latency) {
	t.AddRow(name, fmt.Sprint(l.Count()), fmt.Sprintf("%.1f", l.Mean()),
		fmt.Sprint(int64(l.Quantile(0.50))), fmt.Sprint(int64(l.Quantile(0.99))),
		fmt.Sprint(int64(l.Quantile(0.999))), fmt.Sprint(int64(l.Max())))
}

// runTenants replays the tenant traces on machine: CPU i runs every
// n-th tenant starting at i through cpus[i].world, in pair sync groups. An
// odd tenant also runs a thread on its CPU's pair partner, so its
// teardown must reach that CPU. With fences (online checkpointing),
// each CPU fences during the first heap touch of every ockFenceEvery-th
// tenant it runs and once more at the end; a fence is recorded as one
// more op in the all-ops histogram.
func runTenants(machine *sim.Machine, traces [][]workload.TenantOp, cpus []*tenantCPU, fences []*ockFence) (*tenantLats, error) {
	n := machine.NumCPUs()
	machine.SetSyncGroups(tenantPairGroups(n))
	defer machine.SetSyncGroups(nil)

	lats := make([]*tenantLats, n)
	err := machine.RunParallel(func(c *sim.CPU) error {
		lat := &tenantLats{}
		lats[c.ID()] = lat
		var partner *sim.CPU
		var peers []*sim.CPU
		if p := c.ID() ^ 1; p < n {
			partner = machine.CPU(p)
			peers = []*sim.CPU{partner}
		}
		var fence *ockFence
		if fences != nil {
			fence = fences[c.ID()]
		}
		w := cpus[c.ID()].world
		if err := w.start(c); err != nil {
			return err
		}
		for done, ti := 0, c.ID(); ti < len(traces); done, ti = done+1, ti+n {
			fenceDue := fence != nil && done%ockFenceEvery == 0
			for _, op := range traces[ti] {
				t0 := c.Now()
				var err error
				switch op.Kind {
				case workload.TenantSpawn:
					err = w.spawn(c, ti)
					if err == nil && ti%2 == 1 && partner != nil {
						w.markRanOn(partner)
					}
				case workload.TenantMapShared:
					err = w.mapShared()
					for pg := uint64(0); err == nil && pg < tenantSharedHot; pg++ {
						err = w.readShared(pg)
					}
				case workload.TenantAlloc:
					err = w.alloc(op.Pages)
				case workload.TenantTouch:
					for pg := uint64(0); err == nil && pg < op.Pages; pg++ {
						err = w.writeHeap(pg)
					}
				case workload.TenantFree:
					err = w.free()
				case workload.TenantExit:
					err = w.exit()
				}
				if err != nil {
					return err
				}
				lat.record(op.Kind, c.Now()-t0)
				if fenceDue && op.Kind == workload.TenantTouch {
					lat.total.Record(fence.run(c, peers))
					fenceDue = false
				}
			}
		}
		if fence != nil {
			lat.total.Record(fence.run(c, peers))
		}
		return w.finish()
	})
	if err != nil {
		return nil, err
	}
	return mergeTenantLats(lats), nil
}

// tenantWorld is one CPU's view of a configuration under tenant churn.
// The replay loop (runTenants) holds one tenant at a time per CPU, so
// every method acts on the CPU's current tenant; pages are indices
// into the shared object or the tenant's heap, and each heap touch is
// a one-byte write, which dirty tracking sees.
type tenantWorld interface {
	start(c *sim.CPU) error // first thing the CPU runs in the phase
	spawn(c *sim.CPU, ti int) error
	markRanOn(partner *sim.CPU)
	mapShared() error
	readShared(pg uint64) error
	alloc(pages uint64) error
	writeHeap(pg uint64) error
	free() error
	exit() error
	finish() error // last thing the CPU runs in the phase
}

// pageVA is the address of page pg of a region starting at base.
func pageVA(base mem.VirtAddr, pg uint64) mem.VirtAddr {
	return base + mem.VirtAddr(pg*mem.FrameSize)
}

// builtBeforePhase supplies the no-op start/finish of worlds set up
// entirely before the phase.
type builtBeforePhase struct{}

func (builtBeforePhase) start(*sim.CPU) error { return nil }
func (builtBeforePhase) finish() error        { return nil }

// tenantCPU is one CPU's private share of a configuration: the world
// the replay loop drives, plus the memory and dirty-unit mapping an
// online-checkpoint fence drains.
type tenantCPU struct {
	world tenantWorld
	mem   *mem.Memory
	units func([]mem.Frame) []ckpt.Unit
}

// tenantMaker builds CPU c's private share, charging setup to c.
type tenantMaker func(c *sim.CPU, params *sim.Params) (*tenantCPU, error)

// privateTenants builds a machine whose every CPU owns a private share
// of a configuration, built in CPU order before the phase.
func privateTenants(build tenantMaker) (*sim.Machine, []*tenantCPU, error) {
	params := machineParams()
	machine := newSimMachine(&params, benchCPUs)
	cpus := make([]*tenantCPU, machine.NumCPUs())
	for i := range cpus {
		var err error
		if cpus[i], err = build(machine.CPU(i), &params); err != nil {
			return nil, nil, err
		}
	}
	return machine, cpus, nil
}

// vmTenants runs tenants on a baseline VM kernel. At the start of the
// phase the CPU builds a read-only populated template space; spawn is
// a same-CPU fork of it (per-page PTE copies), the shared object is the
// template memory inherited through the fork, and teardown is per-page
// zap with coalesced shootdowns.
type vmTenants struct {
	kernel   *vm.Kernel
	populate bool // heap allocations populate up front vs demand-fault

	tmpl      *vm.AddressSpace
	tmplVA    mem.VirtAddr
	space     *vm.AddressSpace
	heapVA    mem.VirtAddr
	heapPages uint64
	one       [1]byte
}

func (w *vmTenants) start(c *sim.CPU) error {
	var err error
	if w.tmpl, err = w.kernel.NewAddressSpaceOn(c); err != nil {
		return err
	}
	w.tmplVA, err = w.tmpl.Mmap(vm.MmapRequest{
		Pages: tenantTmplPages, Prot: ro, Anon: true, Private: true, Populate: true,
	})
	return err
}

func (w *vmTenants) spawn(c *sim.CPU, _ int) (err error) {
	w.space, err = w.tmpl.ForkOn(c)
	return err
}

func (w *vmTenants) markRanOn(partner *sim.CPU) { w.space.MarkRanOn(partner) }

// mapShared is free: the fork inherited the template mapping — the
// baseline's way of sharing an object.
func (w *vmTenants) mapShared() error { return nil }

func (w *vmTenants) readShared(pg uint64) error {
	return w.space.Touch(pageVA(w.tmplVA, pg), false)
}

func (w *vmTenants) alloc(pages uint64) (err error) {
	w.heapPages = pages
	w.heapVA, err = w.space.Mmap(vm.MmapRequest{
		Pages: pages, Prot: rw, Anon: true, Private: true, Populate: w.populate,
	})
	return err
}

func (w *vmTenants) writeHeap(pg uint64) error {
	return w.space.WriteBuf(pageVA(w.heapVA, pg), w.one[:])
}

func (w *vmTenants) free() error   { return w.space.Munmap(w.heapVA, w.heapPages) }
func (w *vmTenants) exit() error   { return w.space.Destroy() }
func (w *vmTenants) finish() error { return w.tmpl.Destroy() }

// coreTenants runs tenants on a private file-only-memory system (file
// store, page-table pool, masters) clocked on its CPU, so all charges
// are CPU-local with no kernel-clock forwarding. Spawn is a fresh
// process (no per-page fork cost), the shared object is a per-CPU file
// mapped by each tenant in O(extents), and the heap is a volatile file.
type coreTenants struct {
	sys    *core.System
	mode   core.TranslationMode
	shared *memfs.File

	p         *core.Process
	sm, heapM *core.Mapping
	one       [1]byte
	builtBeforePhase
}

// coreTenantsOn returns the tenantMaker of coreTenants in mode.
func coreTenantsOn(mode core.TranslationMode) tenantMaker {
	return func(c *sim.CPU, params *sim.Params) (*tenantCPU, error) {
		cpuMem, err := mem.New(c.Clock(), params, mem.Config{
			DRAMFrames: tenantCPUDRAM, NVMFrames: tenantCPUNVM,
		})
		if err != nil {
			return nil, err
		}
		sys, err := core.NewSystem(c.Clock(), params, cpuMem, core.Options{})
		if err != nil {
			return nil, err
		}
		shared, err := sys.CreateContiguousFile("/shared", tenantTmplPages,
			memfs.CreateOptions{Mode: ro}, mode == core.SharedPT)
		if err != nil {
			return nil, err
		}
		w := &coreTenants{sys: sys, mode: mode, shared: shared}
		return &tenantCPU{world: w, mem: cpuMem, units: sys.DirtyUnits}, nil
	}
}

func (w *coreTenants) spawn(c *sim.CPU, _ int) (err error) {
	w.p, err = w.sys.NewProcessOn(c, w.mode)
	return err
}

func (w *coreTenants) markRanOn(partner *sim.CPU) { w.p.MarkRanOn(partner) }

func (w *coreTenants) mapShared() (err error) {
	w.sm, err = w.p.MapFile(w.shared, ro)
	return err
}

func (w *coreTenants) readShared(pg uint64) error {
	return w.p.Touch(pageVA(w.sm.Base(), pg), false)
}

func (w *coreTenants) alloc(pages uint64) (err error) {
	w.heapM, err = w.p.AllocVolatile(pages, rw)
	return err
}

func (w *coreTenants) writeHeap(pg uint64) error {
	return w.p.WriteBuf(pageVA(w.heapM.Base(), pg), w.one[:])
}

func (w *coreTenants) free() error { return w.p.Unmap(w.heapM) }
func (w *coreTenants) exit() error { return w.p.Exit() }

// usermodeTenants runs tenants on user-mode software-managed memory: a
// private grant table and pool clocked on its CPU. Spawn admits the
// process and installs its up-front grant batch (the Cichlid model —
// the 512-page batch covers every burst, so no tenant ever refills),
// the shared object is a refcounted shared segment held alive by a
// template process, alloc/free are pure user-level free-list
// operations, and exit revokes the tenant's grants through the queue
// in O(grants). There are no TLBs in this world, so partner threads
// need no teardown work and nothing is marked as having run anywhere.
type usermodeTenants struct {
	gt  *usermode.GrantTable
	seg *usermode.SharedSeg

	p   *usermode.Process
	hr  heap.Region
	one [1]byte
	builtBeforePhase
}

func usermodeTenantsOn(c *sim.CPU, params *sim.Params) (*tenantCPU, error) {
	cpuMem, err := mem.New(c.Clock(), params, mem.Config{DRAMFrames: tenantCPUDRAM})
	if err != nil {
		return nil, err
	}
	gt, err := usermode.NewGrantTable(c.Clock(), params, cpuMem, usermode.Config{
		PoolBase: 0, PoolFrames: tenantCPUDRAM,
	})
	if err != nil {
		return nil, err
	}
	tmpl, err := gt.NewProcessOn(c)
	if err != nil {
		return nil, err
	}
	seg, err := gt.NewShared(tmpl, tenantTmplPages)
	if err != nil {
		return nil, err
	}
	w := &usermodeTenants{gt: gt, seg: seg}
	return &tenantCPU{world: w, mem: cpuMem, units: gt.DirtyUnits}, nil
}

func (w *usermodeTenants) spawn(c *sim.CPU, _ int) (err error) {
	w.p, err = w.gt.NewProcessOn(c)
	return err
}

func (w *usermodeTenants) markRanOn(*sim.CPU) {}

func (w *usermodeTenants) mapShared() error { return w.p.MapShared(w.seg) }

func (w *usermodeTenants) readShared(pg uint64) error {
	return w.p.ReadBuf(pageVA(w.seg.Base(), pg), w.one[:])
}

func (w *usermodeTenants) alloc(pages uint64) (err error) {
	w.hr, err = w.p.AllocPages(pages)
	return err
}

func (w *usermodeTenants) writeHeap(pg uint64) error {
	return w.p.WriteBuf(pageVA(w.hr.Base(), pg), w.one[:])
}

func (w *usermodeTenants) free() error { return w.p.FreeRegion(w.hr) }
func (w *usermodeTenants) exit() error { return w.p.Exit() }
