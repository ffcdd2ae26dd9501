package bench

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tier"
	"repro/internal/usermode"
	"repro/internal/vm"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "tiering",
		Title: "tiered memory: migration policies over fast/slow frame tiers",
		Paper: "§3 ('heterogeneous and tiered memories'): per-op latency and migration cost when the translation scheme sets the migration granularity",
		Run:   tiering,
	})
}

// Tiering sizing. Every CPU runs an isolated context (its own memory,
// kernel/system, files, and tier engine, all clocked on that CPU): a
// W-page working set is populated sequentially and then hammered with
// a hot/cold touch mix while the fast tier holds only a configured
// fraction of W. Ratios keep the 10% hot set resident even at 1/8, so
// a policy that learns the hot set stops paying slow-tier penalties.
const (
	e19Pages      = 1024 // per-CPU working-set pages (W)
	e19Touches    = 1024 // measured steady-state touches per CPU
	e19WriteEvery = 4    // every 4th touch writes
	e19ScanEvery  = 16   // touches between clock-hand scan rounds
	e19ScanBatch  = 64   // frames aged per scan round

	// Physical regions. Fast regions are at least 2× the largest cap
	// (W/2): the watermarks must relieve pressure before the fast buddy
	// physically fills, or multi-page promotions fail on fragmentation.
	e19VMPool   = 4 * e19Pages // baseline DRAM pool (pages + page tables)
	e19SlowPool = 2 * e19Pages // baseline NVM overflow pool
	e19FomFast  = e19Pages     // fom DRAM fast region
	e19PTPool   = 1024         // core page-table pool (bottom of DRAM)
	e19CoreFast = 2 * e19Pages // core fast region (above the PT pool)
	e19FilePool = 4 * e19Pages // file-store frames (pbm pads to chunks)

	// File shapes: ranges/fom carve the working set into small extents,
	// pbm into SharedPT chunk-aligned files — so a migration moves 64
	// pages under ranges and 512 under pbm.
	e19RangeFilePages = 64
	e19ChunkFilePages = 512
)

// tierRatio is one fast-tier sizing: the fast cap is pages*Num/Den.
type tierRatio struct {
	Name     string
	Num, Den uint64
}

func (r tierRatio) cap(pages uint64) uint64 { return pages * r.Num / r.Den }

// tierRatiosAll is the default fast-tier sweep.
var tierRatiosAll = []tierRatio{{"1/8", 1, 8}, {"1/4", 1, 4}, {"1/2", 1, 2}}

// Sweep selection (the -tier-policy and -fast-ratio flags).
var (
	tierPoliciesSel = tier.Policies
	tierRatiosSel   = tierRatiosAll
)

// SetTierPolicies restricts the tiering experiment's policy sweep to a
// comma-separated list ("all" or empty restores the full sweep).
func SetTierPolicies(spec string) error {
	if spec == "" || spec == "all" {
		tierPoliciesSel = tier.Policies
		return nil
	}
	var sel []tier.Policy
	for _, s := range strings.Split(spec, ",") {
		p, err := tier.ParsePolicy(strings.TrimSpace(s))
		if err != nil {
			return err
		}
		sel = append(sel, p)
	}
	tierPoliciesSel = sel
	return nil
}

// SetTierRatios restricts the tiering experiment's fast-tier ratio
// sweep to a comma-separated list of fractions like "1/8,1/2" ("all"
// or empty restores the full sweep).
func SetTierRatios(spec string) error {
	if spec == "" || spec == "all" {
		tierRatiosSel = tierRatiosAll
		return nil
	}
	var sel []tierRatio
	for _, s := range strings.Split(spec, ",") {
		s = strings.TrimSpace(s)
		var num, den uint64
		if _, err := fmt.Sscanf(s, "%d/%d", &num, &den); err != nil || num == 0 || den == 0 || num > den {
			return fmt.Errorf("bench: bad fast-tier ratio %q (want e.g. 1/8)", s)
		}
		sel = append(sel, tierRatio{s, num, den})
	}
	tierRatiosSel = sel
	return nil
}

var tierConfigs = []string{"baseline", "fom", "pbm", "ranges", "usermode"}

func tiering() (*Result, error) {
	table := metrics.NewTable(
		fmt.Sprintf("steady-state touch latency over a %d-page working set, hot/cold 90/10 (per CPU)", e19Pages),
		"config", "policy", "fast", "p50_ns", "p99_ns", "promo", "demo", "swap", "stall",
		"pages_moved", "extent_migs", "splits", "mig_us", "fast_occ", "slow_occ")

	for _, cfg := range tierConfigs {
		for _, pol := range tierPoliciesSel {
			for _, r := range tierRatiosSel {
				lat, d, fast, slow, err := tieringCell(cfg, pol, r.cap(e19Pages))
				if err != nil {
					return nil, fmt.Errorf("tiering %s/%s/%s: %w", cfg, pol, r.Name, err)
				}
				table.AddRow(cfg, pol.String(), r.Name,
					fmt.Sprint(int64(lat.Quantile(0.50))), fmt.Sprint(int64(lat.Quantile(0.99))),
					fmt.Sprint(d.Promotions), fmt.Sprint(d.Demotions),
					fmt.Sprint(d.Swaps), fmt.Sprint(d.Stalls),
					fmt.Sprint(d.PagesMoved), fmt.Sprint(d.ExtentMoves), fmt.Sprint(d.Splits),
					fmt.Sprintf("%.1f", float64(d.MigrateTime)/1e3),
					fmt.Sprint(fast), fmt.Sprint(slow))
			}
		}
	}

	return &Result{
		ID:     "tiering",
		Title:  "tiered memory migration policies",
		Paper:  "§3 tiered-memory claim",
		Tables: []*metrics.Table{table},
		Notes: []string{
			"fast = fast-tier capacity as a fraction of the working set; pages past the cap first-touch into the slow tier and pay the NVM read/write penalty on every access until promoted",
			"none = static first-touch placement; promote = on-access promotion that stalls once the fast tier fills; demote = watermark-driven background demotion only; smart = both, with coldest-out swaps when full",
			"migration granularity follows the translation scheme: baseline moves single pages (rmap + PTE rewrite + coalesced shootdown), fom splits extents to move single pages, ranges moves whole 64-page extents, pbm moves whole 512-page chunk extents, usermode moves whole 64-page granted extents — extent_migs × extent size = pages_moved",
			"usermode has no translations to invalidate: a migration is a grant-queue round trip, a frame copy, and a cooperative relocation callback that rebases the process's view — the software analogue of a shootdown, minus the IPIs",
			"mig_us is simulated time spent inside backend migrations; it lands in the latency window of the touch whose pump triggered it, which is what stretches p99 for the extent-granular configs",
			"each CPU runs an isolated context (own memory, kernel, files, engine) in its own sync group, so host-parallel runs are byte-identical to serial",
		},
	}, nil
}

// tierCtx is one CPU's isolated tiered context: a touch path over a
// W-page working set, plus the engine hooks the run loop drives.
type tierCtx struct {
	eng   *tier.Engine
	touch func(c *sim.CPU, page uint64, write bool) error
	pump  func(c *sim.CPU) // nil when the access path pumps itself
	scan  func(c *sim.CPU, batch int)
}

// tieringCell runs one (config, policy, fast-cap) cell and returns the
// merged latency histogram, the telemetry delta, and the final
// per-tier occupancy summed over CPUs.
func tieringCell(cfg string, policy tier.Policy, fastCap uint64) (*workload.Latency, tier.Telemetry, uint64, uint64, error) {
	params := machineParams()
	machine := newSimMachine(&params, benchCPUs)
	n := machine.NumCPUs()
	groups := make([][]int, n)
	for i := range groups {
		groups[i] = []int{i}
	}
	machine.SetSyncGroups(groups)
	defer machine.SetSyncGroups(nil)

	before := tier.TelemetrySnapshot()
	ctxs := make([]*tierCtx, n)
	for i := 0; i < n; i++ {
		ctx, err := newTierCtx(cfg, machine.CPU(i), &params, policy, fastCap)
		if err != nil {
			return nil, tier.Telemetry{}, 0, 0, err
		}
		ctxs[i] = ctx
	}

	lats := make([]*workload.Latency, n)
	for i := range lats {
		lats[i] = &workload.Latency{}
	}
	err := machine.RunParallel(func(c *sim.CPU) error {
		return ctxs[c.ID()].run(c, lats[c.ID()], 0x713+uint64(c.ID()))
	})
	if err != nil {
		return nil, tier.Telemetry{}, 0, 0, err
	}

	d := tier.TelemetrySnapshot().Sub(before)
	var fast, slow uint64
	for _, ctx := range ctxs {
		f, s := ctx.eng.Occupancy()
		fast += f
		slow += s
	}
	return mergeLatencies(lats), d, fast, slow, nil
}

// run populates the working set, then measures the hot/cold touch
// phase. Promotions pump at each touch's end (so migration cost lands
// in that op's latency); the clock-hand scan runs between ops.
func (x *tierCtx) run(c *sim.CPU, lat *workload.Latency, seed uint64) error {
	// Populate from the top of the working set down: first-touch fills
	// the fast tier with the HIGHEST page numbers, so the hot set (the
	// low pages, per workload.HotCold) starts in the slow tier and only
	// a policy that learns hotness can move it.
	for p := uint64(e19Pages); p > 0; p-- {
		if err := x.touch(c, p-1, true); err != nil {
			return err
		}
		if x.pump != nil {
			x.pump(c)
		}
	}
	idx, err := workload.Touches(workload.HotCold, e19Pages, e19Touches, 0, seed)
	if err != nil {
		return err
	}
	for i, pg := range idx {
		t0 := c.Now()
		if err := x.touch(c, pg, i%e19WriteEvery == 0); err != nil {
			return err
		}
		if x.pump != nil {
			x.pump(c)
		}
		lat.Record(c.Now() - t0)
		if (i+1)%e19ScanEvery == 0 {
			x.scan(c, e19ScanBatch)
		}
	}
	return nil
}

// newTierCtx builds the per-CPU context for one configuration. All
// clocks are the CPU's own, so construction and run charges are
// CPU-local and deterministic.
func newTierCtx(cfg string, c *sim.CPU, params *sim.Params, policy tier.Policy, fastCap uint64) (*tierCtx, error) {
	switch cfg {
	case "baseline":
		return newTierCtxVM(c, params, policy, fastCap)
	case "fom":
		return newTierCtxFOM(c, params, policy, fastCap)
	case "pbm":
		return newTierCtxCore(c, params, policy, fastCap, core.SharedPT, e19ChunkFilePages, true)
	case "ranges":
		return newTierCtxCore(c, params, policy, fastCap, core.Ranges, e19RangeFilePages, false)
	case "usermode":
		return newTierCtxUsermode(c, params, policy, fastCap)
	}
	return nil, fmt.Errorf("unknown tiering config %q", cfg)
}

// newTierCtxVM: the baseline kernel with a slow anon pool. The whole
// DRAM pool is the fast tier; past the cap, first touches demand-fault
// into the slow pool and migrations rewrite PTEs through the rmap.
func newTierCtxVM(c *sim.CPU, params *sim.Params, policy tier.Policy, fastCap uint64) (*tierCtx, error) {
	cpuMem, err := mem.New(c.Clock(), params, mem.Config{
		DRAMFrames: e19VMPool, NVMFrames: e19SlowPool,
	})
	if err != nil {
		return nil, err
	}
	k, err := vm.NewKernel(c.Clock(), params, cpuMem, vm.Config{
		PoolBase: 0, PoolFrames: e19VMPool,
		SlowPoolBase: mem.Frame(e19VMPool), SlowPoolFrames: e19SlowPool,
	})
	if err != nil {
		return nil, err
	}
	eng, err := tier.New(params, cpuMem, policy, fastCap)
	if err != nil {
		return nil, err
	}
	k.AttachTier(eng)
	as, err := k.NewAddressSpaceOn(c)
	if err != nil {
		return nil, err
	}
	va, err := as.Mmap(vm.MmapRequest{Pages: e19Pages, Prot: rw, Anon: true, Private: true})
	if err != nil {
		return nil, err
	}
	return &tierCtx{
		eng: eng,
		touch: func(c *sim.CPU, page uint64, write bool) error {
			return as.Touch(va+mem.VirtAddr(page*mem.FrameSize), write)
		},
		scan: func(c *sim.CPU, batch int) { k.TierScan(c, batch) },
	}, nil
}

// newTierCtxFOM: the extent file store accessed by offset alone. The
// store's own read/write paths record accesses but have no CPU handle,
// so the run loop pumps; migration splits extents to move one page.
func newTierCtxFOM(c *sim.CPU, params *sim.Params, policy tier.Policy, fastCap uint64) (*tierCtx, error) {
	cpuMem, err := mem.New(c.Clock(), params, mem.Config{
		DRAMFrames: e19FomFast, NVMFrames: e19FilePool,
	})
	if err != nil {
		return nil, err
	}
	fs, err := memfs.New(fmt.Sprintf("e19fom%d", c.ID()), memfs.Extent, c.Clock(), params,
		cpuMem, mem.Frame(e19FomFast), e19FilePool)
	if err != nil {
		return nil, err
	}
	eng, err := tier.New(params, cpuMem, policy, fastCap)
	if err != nil {
		return nil, err
	}
	if err := fs.AttachTier(eng, 0, e19FomFast); err != nil {
		return nil, err
	}
	// Allocate the high files first (frames are placed at creation), so
	// the hot low pages start in the slow tier — see run's populate.
	files := make([]*memfs.File, e19Pages/e19RangeFilePages)
	for i := len(files) - 1; i >= 0; i-- {
		f, err := fs.CreateTemp("wset", memfs.CreateOptions{})
		if err != nil {
			return nil, err
		}
		if err := f.EnsureContiguous(e19RangeFilePages); err != nil {
			return nil, err
		}
		files[i] = f
	}
	var one [1]byte
	return &tierCtx{
		eng: eng,
		touch: func(c *sim.CPU, page uint64, write bool) error {
			f := files[page/e19RangeFilePages]
			off := (page % e19RangeFilePages) * mem.FrameSize
			var err error
			if write {
				_, err = f.WriteAt([]byte{byte(page)}, off)
			} else {
				_, err = f.ReadAt(one[:], off)
			}
			return err
		},
		pump: func(c *sim.CPU) { eng.Pump(c) },
		scan: func(c *sim.CPU, batch int) { eng.Scan(c, batch) },
	}, nil
}

// newTierCtxUsermode: user-mode software-managed memory. The working
// set lives in granted extents the size of a ranges extent (64 pages),
// allocated batch-at-a-time from a fast (DRAM) and a slow (NVM) pool;
// accesses pay a software bounds check instead of a page walk, and
// migration relocates a whole granted extent cooperatively — the
// process learns the new base through its relocation callback, so
// there is nothing to shoot down.
func newTierCtxUsermode(c *sim.CPU, params *sim.Params, policy tier.Policy, fastCap uint64) (*tierCtx, error) {
	cpuMem, err := mem.New(c.Clock(), params, mem.Config{
		DRAMFrames: e19FomFast, NVMFrames: e19FilePool,
	})
	if err != nil {
		return nil, err
	}
	gt, err := usermode.NewGrantTable(c.Clock(), params, cpuMem, usermode.Config{
		PoolBase: mem.Frame(e19FomFast), PoolFrames: e19FilePool,
		FastBase: 0, FastFrames: e19FomFast,
		// One grant = one ranges-sized extent, so the migration
		// granularity matches the ranges configuration.
		BatchPages: e19RangeFilePages,
	})
	if err != nil {
		return nil, err
	}
	eng, err := tier.New(params, cpuMem, policy, fastCap)
	if err != nil {
		return nil, err
	}
	gt.SetEngine(eng)
	p, err := gt.NewProcessOn(c)
	if err != nil {
		return nil, err
	}
	// Allocate the high chunks first (grants are placed fast-first at
	// refill time), so the hot low pages start in the slow tier — see
	// run's populate. Each chunk exactly fills one grant.
	bases := make([]mem.VirtAddr, e19Pages/e19RangeFilePages)
	for i := len(bases) - 1; i >= 0; i-- {
		r, err := p.AllocPages(e19RangeFilePages)
		if err != nil {
			return nil, err
		}
		bases[i] = r.Base()
	}
	p.SetRelocate(func(old, new mem.VirtAddr, pages uint64) {
		span := mem.VirtAddr(pages * mem.FrameSize)
		for i := range bases {
			if bases[i] >= old && bases[i] < old+span {
				bases[i] = new + (bases[i] - old)
			}
		}
	})
	var one [1]byte
	return &tierCtx{
		eng: eng,
		touch: func(c *sim.CPU, page uint64, write bool) error {
			addr := bases[page/e19RangeFilePages] + mem.VirtAddr((page%e19RangeFilePages)*mem.FrameSize)
			if write {
				return p.WriteBuf(addr, []byte{byte(page)})
			}
			return p.ReadBuf(addr, one[:])
		},
		pump: func(c *sim.CPU) { eng.Pump(c) },
		scan: func(c *sim.CPU, batch int) { eng.Scan(c, batch) },
	}, nil
}

// newTierCtxCore: file-only memory with PBM translations. The working
// set is mapped files; migration relocates whole extents and relinks
// every mapper with coalesced shootdowns, so the translation scheme's
// extent size is the migration granularity.
func newTierCtxCore(c *sim.CPU, params *sim.Params, policy tier.Policy, fastCap uint64,
	mode core.TranslationMode, filePages uint64, chunkAligned bool) (*tierCtx, error) {
	cpuMem, err := mem.New(c.Clock(), params, mem.Config{
		DRAMFrames: e19PTPool + e19CoreFast, NVMFrames: e19FilePool,
	})
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(c.Clock(), params, cpuMem, core.Options{
		PTPoolBase: 0, PTPoolFrames: e19PTPool,
	})
	if err != nil {
		return nil, err
	}
	eng, err := tier.New(params, cpuMem, policy, fastCap)
	if err != nil {
		return nil, err
	}
	if err := sys.AttachTier(eng, mem.Frame(e19PTPool), e19CoreFast); err != nil {
		return nil, err
	}
	p, err := sys.NewProcessOn(c, mode)
	if err != nil {
		return nil, err
	}
	// Allocate the high files first (frames are placed at creation), so
	// the hot low pages start in the slow tier — see run's populate.
	maps := make([]*core.Mapping, e19Pages/filePages)
	for i := len(maps) - 1; i >= 0; i-- {
		f, err := sys.CreateContiguousFile(fmt.Sprintf("/wset%d", i), filePages,
			memfs.CreateOptions{Mode: rw}, chunkAligned)
		if err != nil {
			return nil, err
		}
		m, err := p.MapFile(f, rw)
		if err != nil {
			return nil, err
		}
		maps[i] = m
	}
	return &tierCtx{
		eng: eng,
		touch: func(c *sim.CPU, page uint64, write bool) error {
			m := maps[page/filePages]
			va, err := m.VAForOffset((page % filePages) * mem.FrameSize)
			if err != nil {
				return err
			}
			return p.Touch(va, write)
		},
		scan: func(c *sim.CPU, batch int) { sys.TierScan(c, batch) },
	}, nil
}
