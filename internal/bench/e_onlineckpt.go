package bench

import (
	"fmt"
	"io"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/vm"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "online-ckpt",
		Title: "online incremental checkpointing: fence jitter and dirty-set scaling under tenant churn",
		Paper: "§4 persistence: checkpoint cost is O(dirty extents) for extent-structured memory vs O(dirty pages) for the baseline",
		Run:   onlineCkpt,
	})
}

// Online-checkpoint sizing. A smaller tenant fleet than the tenants
// experiment (the fence math, not raw churn, is the subject), fenced
// every ockFenceEvery tenants on each CPU.
const (
	ockTenants    = 600
	ockBursts     = 2
	ockHeapPages  = 48
	ockFenceEvery = 24
)

// ockStats accumulates one CPU's checkpoint-fence observations; the
// per-CPU fences' stats are merged in CPU order after the phase.
type ockStats struct {
	checkpoints uint64
	dirtyPages  uint64
	liveUnits   uint64
	deadPages   uint64
	copiedPages uint64
	fence       workload.Latency
}

func mergeOckStats(fences []*ockFence) *ockStats {
	out := &fences[0].stats
	for _, f := range fences[1:] {
		s := &f.stats
		out.checkpoints += s.checkpoints
		out.dirtyPages += s.dirtyPages
		out.liveUnits += s.liveUnits
		out.deadPages += s.deadPages
		out.copiedPages += s.copiedPages
		out.fence.Merge(&s.fence)
	}
	return out
}

// ockFence is one CPU's epoch-fence machinery: the per-CPU memory
// whose dirty set it drains, the subsystem closure that maps dirty
// frames onto checkpoint units, the per-unit metadata cost (per-page
// records for the baseline, per-extent records for extent-structured
// memory), and the DRAM boundary — dirty frames below it hold the only
// copy of their data and must be copied into the checkpoint stream,
// while NVM-resident frames are already durable in place.
type ockFence struct {
	machine *sim.Machine
	mem     *mem.Memory
	units   func([]mem.Frame) []ckpt.Unit
	metaOp  sim.Time
	dram    mem.Frame
	stats   ockStats
}

// run quiesces the CPU's sync domain with an ordered section, captures
// the dirty set, charges the modeled fence cost on the CPU's clock
// (journal append + one metadata record per live unit + a page copy
// per DRAM-resident live dirty frame), and opens the next epoch.
// Dirty frames no subsystem claims are dead — their owner was freed
// before the fence, the allocator's journaled metadata already records
// them as free, and recovery never reads their content — so they cost
// nothing; the baseline's pool claims every dirty frame page-granular,
// so it never gets this discount. The returned duration is the fence
// as the tenant loop observes it — the induced latency spike.
func (f *ockFence) run(c *sim.CPU, peers []*sim.CPU) sim.Time {
	t0 := c.Now()
	f.machine.OrderedDomain(c, peers, func() {
		frames := f.mem.DirtyFrames()
		units := f.units(frames)
		dead := make(map[mem.Frame]bool)
		for _, fr := range ckpt.Uncovered(frames, units) {
			dead[fr] = true
		}
		var copied uint64
		for _, fr := range frames {
			if !dead[fr] && fr < f.dram {
				copied++
			}
		}
		params := f.machine.Params()
		cost := params.JournalAppend +
			sim.Time(len(units))*f.metaOp +
			sim.Time(copied)*params.ZeroPage
		c.Clock().Advance(cost)
		f.mem.ResetDirty()
		f.stats.checkpoints++
		f.stats.dirtyPages += uint64(len(frames))
		f.stats.liveUnits += uint64(len(units))
		f.stats.deadPages += uint64(len(dead))
		f.stats.copiedPages += copied
	})
	d := c.Now() - t0
	f.stats.fence.Record(d)
	return d
}

func onlineCkpt() (*Result, error) {
	traces, err := workload.TenantTrace(workload.TenantConfig{
		Tenants: ockTenants, Bursts: ockBursts, HeapPages: ockHeapPages, Seed: 23,
	})
	if err != nil {
		return nil, err
	}

	latTable := metrics.NewTable(
		fmt.Sprintf("per-op simulated latency over %d tenants × %d bursts, online checkpoints off vs on (ns)",
			ockTenants, ockBursts),
		"config", "ckpt", "ops", "mean_ns", "p50_ns", "p99_ns", "p99.9_ns", "max_ns")
	scaleTable := metrics.NewTable(
		"checkpoint scaling: what one epoch fence drains and what it costs",
		"config", "checkpoints", "dirty_pages", "live_units", "pages_per_unit", "dead_pages", "copied_pages", "fence_mean_ns", "fence_max_ns")

	for _, cfg := range []struct {
		name     string
		build    tenantMaker
		pageMeta bool // per-page checkpoint records, not per-extent
	}{
		{"baseline", vmTenantsOn, true},
		{"fom", fileTenantsOn, false},
		{"pbm", coreTenantsOn(core.SharedPT), false},
		{"ranges", coreTenantsOn(core.Ranges), false},
		{"usermode", usermodeTenantsOn, false},
	} {
		for _, ck := range []bool{false, true} {
			lat, stats, err := ockRun(traces, cfg.build, cfg.pageMeta, ck)
			if err != nil {
				return nil, fmt.Errorf("online-ckpt %s (ckpt=%v): %w", cfg.name, ck, err)
			}
			mode := "off"
			if ck {
				mode = "on"
			}
			l := &lat.total
			latTable.AddRow(cfg.name, mode, fmt.Sprint(l.Count()), fmt.Sprintf("%.1f", l.Mean()),
				fmt.Sprint(int64(l.Quantile(0.50))), fmt.Sprint(int64(l.Quantile(0.99))),
				fmt.Sprint(int64(l.Quantile(0.999))), fmt.Sprint(int64(l.Max())))
			if ck {
				perUnit := 0.0
				if stats.liveUnits > 0 {
					perUnit = float64(stats.dirtyPages-stats.deadPages) / float64(stats.liveUnits)
				}
				scaleTable.AddRow(cfg.name,
					fmt.Sprint(stats.checkpoints), fmt.Sprint(stats.dirtyPages),
					fmt.Sprint(stats.liveUnits), fmt.Sprintf("%.1f", perUnit),
					fmt.Sprint(stats.deadPages), fmt.Sprint(stats.copiedPages),
					fmt.Sprintf("%.1f", stats.fence.Mean()), fmt.Sprint(int64(stats.fence.Max())))
			}
		}
	}

	return &Result{
		ID:     "online-ckpt",
		Title:  "online incremental checkpointing under tenant churn",
		Paper:  "§4 persistence as a first-class memory-system service",
		Tables: []*metrics.Table{latTable, scaleTable},
		Notes: []string{
			"every CPU runs its own memory + subsystem and fences every 24 locally completed tenants: an ordered section over the pair sync domain captures the dirty set, appends one journal record, writes per-unit metadata, copies DRAM-resident dirty pages, and opens the next epoch — the fence is recorded as one more op, so the on-rows' tails show the induced jitter",
			"the baseline checkpoints anonymous DRAM pages: its pool claims every dirty frame as its own page-granular unit (pages_per_unit = 1, dead_pages = 0 — per-page metadata can't tell live from dead without a page-table walk) and every one must be copied out of DRAM, so the fence is O(dirty pages) in both metadata and data",
			"extent-structured configurations (fom, pbm, ranges, usermode) map the same dirty frames onto whole extents or grants: metadata is O(live dirty extents), frames whose extent was already freed are dead (the journaled allocator metadata records them as free, recovery never reads them), and file data lives in NVM — so fom/pbm/ranges copy nothing at a fence",
			"usermode's grant pool is DRAM-resident, so it pays the copy like the baseline but the metadata like the extent worlds — the O(grants) vs O(pages) split the paper's user-mode story predicts",
			"the fence runs inside Machine.OrderedDomain over the tenant pair, so checkpoints serialize only against the partner CPU, never the whole machine — online checkpointing inherits the sharded-sync-domain scaling",
		},
	}, nil
}

// ockRun replays the tenant traces with one private subsystem per CPU,
// built by build; with ck set, dirty tracking is on and every CPU
// fences its memory (see runTenants) and the fence stats are returned.
func ockRun(traces [][]workload.TenantOp, build tenantMaker, pageMeta, ck bool) (*tenantLats, *ockStats, error) {
	machine, cpus, err := privateTenants(build)
	if err != nil {
		return nil, nil, err
	}
	if !ck {
		lat, err := runTenants(machine, traces, cpus, nil)
		return lat, nil, err
	}
	metaOp := machine.Params().ExtentOp
	if pageMeta {
		metaOp = machine.Params().PageMetaOp
	}
	fences := make([]*ockFence, len(cpus))
	for i, tc := range cpus {
		tc.mem.SetDirtyTracking(true)
		dram, _ := tc.mem.Region(mem.DRAM)
		fences[i] = &ockFence{
			machine: machine, mem: tc.mem, units: tc.units,
			metaOp: metaOp, dram: dram.End(),
		}
	}
	lat, err := runTenants(machine, traces, cpus, fences)
	if err != nil {
		return nil, nil, err
	}
	return lat, mergeOckStats(fences), nil
}

// vmTenantsOn builds a private populate-mode baseline kernel per CPU;
// its pool claims every dirty frame as a page-granular unit.
func vmTenantsOn(c *sim.CPU, params *sim.Params) (*tenantCPU, error) {
	cpuMem, err := mem.New(c.Clock(), params, mem.Config{DRAMFrames: tenantCPUDRAM})
	if err != nil {
		return nil, err
	}
	k, err := vm.NewKernel(c.Clock(), params, cpuMem, vm.Config{
		PoolBase: 0, PoolFrames: tenantCPUDRAM,
	})
	if err != nil {
		return nil, err
	}
	w := &vmTenants{kernel: k, populate: true}
	return &tenantCPU{world: w, mem: cpuMem, units: k.DirtyUnits}, nil
}

// fileTenants runs tenants on a private extent file system accessed
// purely through the file interface: a tenant is a file, its heap is
// the file's extent, and touches are one-byte writes — the
// file-only-memory world with no mapping hardware at all (so nothing
// to map and no TLBs a partner thread could fill).
type fileTenants struct {
	fs     *memfs.FS
	shared *memfs.File

	path string
	f    *memfs.File
	one  [1]byte
	builtBeforePhase
}

func fileTenantsOn(c *sim.CPU, params *sim.Params) (*tenantCPU, error) {
	const dramFrames = uint64(16)
	cpuMem, err := mem.New(c.Clock(), params, mem.Config{
		DRAMFrames: dramFrames, NVMFrames: tenantCPUNVM,
	})
	if err != nil {
		return nil, err
	}
	fs, err := memfs.New("ock", memfs.Extent, c.Clock(), params, cpuMem,
		mem.Frame(dramFrames), tenantCPUNVM)
	if err != nil {
		return nil, err
	}
	shared, err := fs.Create("/shared", memfs.CreateOptions{})
	if err != nil {
		return nil, err
	}
	if err := shared.Truncate(tenantTmplPages * mem.FrameSize); err != nil {
		return nil, err
	}
	w := &fileTenants{fs: fs, shared: shared}
	return &tenantCPU{world: w, mem: cpuMem, units: fs.DirtyUnits}, nil
}

func (w *fileTenants) spawn(_ *sim.CPU, ti int) (err error) {
	w.path = fmt.Sprintf("/t%d", ti)
	w.f, err = w.fs.OpenFile(w.path, memfs.OCreate|memfs.OExcl, memfs.CreateOptions{})
	return err
}

func (w *fileTenants) markRanOn(*sim.CPU) {}
func (w *fileTenants) mapShared() error   { return nil }

func (w *fileTenants) readShared(pg uint64) error {
	if _, err := w.shared.Seek(int64(pg*mem.FrameSize), io.SeekStart); err != nil {
		return err
	}
	_, err := w.shared.Read(w.one[:])
	return err
}

func (w *fileTenants) alloc(pages uint64) error { return w.f.Truncate(pages * mem.FrameSize) }

func (w *fileTenants) writeHeap(pg uint64) error {
	_, err := w.f.WriteAt(w.one[:], pg*mem.FrameSize)
	return err
}

func (w *fileTenants) free() error { return w.f.Truncate(0) }

func (w *fileTenants) exit() error {
	if err := w.f.Close(); err != nil {
		return err
	}
	return w.fs.Unlink(w.path)
}
