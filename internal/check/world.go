package check

import (
	"fmt"
	"sort"

	"repro/internal/ckpt"
	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/sim"
)

// A world is one memory-system configuration under differential test.
// Worlds receive only operations the model declared valid, so any
// error is a divergence and fails the run.
type world interface {
	name() string
	// apply executes one non-read operation.
	apply(op Op) error
	// readback executes an OpRead and returns the observed byte.
	readback(op Op) (byte, error)
	// objectByte reads byte 0 of one page of a live object through the
	// given process's view (final-state comparison).
	objectByte(obj, proc int, page uint64) (byte, error)
	// fileByte reads byte 0 of one page of a named file.
	fileByte(path string, page uint64) (byte, error)
	// check runs the machine-wide invariant sweep.
	check() error
	// tierStep drives the tier engine between operations (promotion
	// pump where the data path has no CPU handle, periodic hotness
	// scan). No-op without tiering.
	tierStep(i int)
	// machine exposes the world's simulated machine (persistence
	// captures its state; see persist.go).
	machine() *sim.Machine
	// memory exposes the world's physical memory (persistence
	// checksums its content and injects crashes).
	memory() *mem.Memory
	// dirtyUnits maps a dirty-frame set onto checkpoint units by asking
	// each subsystem to claim the frames it owns — extents for file
	// stores, grants for usermode, single pages for the baseline. Every
	// dirty frame must be covered; the crash-recover stage fails
	// on gaps (see persist_incr.go).
	dirtyUnits(frames []mem.Frame) []ckpt.Unit
}

// Machine sizing shared by all worlds. The generator's capacity caps
// (gen.go) guarantee that no configuration — including SharedPT, which
// pads every object to 512-page chunks — can exhaust these.
const (
	pageSize   = mem.FrameSize
	dramFrames = 1 << 16 // 256 MiB: baseline page pool, core PT pool
	nvmFrames  = 1 << 17 // 512 MiB: file stores
)

// Tier-enabled world sizing. Each fast cap sits BELOW the working set
// a generated trace sustains in that world (measured: ~90 live anon
// pages in baseline, ~1150 live file pages in fom/ranges, several
// 512-page chunks in pbm), so every policy direction — first-touch
// overflow into the slow tier, promotion, demotion — actually
// exercises under a generated trace; internal/check/tier_test.go
// asserts it via telemetry deltas.
// Each physical fast region is 2× its engine cap: the policy's
// watermarks must relieve pressure before the fast buddy physically
// fills, or multi-page extent promotions start failing on
// fragmentation while the engine still believes there is room.
const (
	// tierFastCapVM bounds the baseline kernel's fast-tier anon frames;
	// overflow allocates from a slow pool carved off the top of NVM (the
	// physical fast region is all of DRAM, so only the cap matters).
	tierFastCapVM    = 48
	tierSlowFramesVM = 1 << 15
	// tierFastCapFOM/RegionFOM size the DRAM block region added to the
	// fom store.
	tierFastCapFOM    = 256
	tierFastRegionFOM = 512
	// tierFastCapPBM must hold whole SharedPT extents (512-page
	// chunks), since core migrates at extent granularity.
	tierFastCapPBM    = 4096
	tierFastRegionPBM = 8192
	// tierFastCapRanges can be small: range extents are at most
	// maxFilePages (64) long.
	tierFastCapRanges    = 512
	tierFastRegionRanges = 1024
	// tierScanEvery/tierScanBatch pace the harness's clock-hand scan.
	tierScanEvery = 8
	tierScanBatch = 32
)

// rwProt is the protection every harness mapping uses.
var rwProt = pagetable.FlagRead | pagetable.FlagWrite | pagetable.FlagUser

// newWorld builds the named configuration on a fresh machine. With
// tiered set, the world attaches a tier.Engine under the Smart policy —
// the bidirectional one, so promotions, demotions, and swaps all happen
// on a long enough trace.
func newWorld(config string, cpus int, seed uint64, tiered bool) (world, error) {
	switch config {
	case "baseline":
		return newVMWorld(cpus, seed, tiered)
	case "fom":
		return newFOMWorld(cpus, seed, tiered)
	case "pbm":
		return newCoreWorld("pbm", cpus, seed, tiered)
	case "ranges":
		return newCoreWorld("ranges", cpus, seed, tiered)
	case "usermode":
		return newUsermodeWorld(cpus, seed, tiered)
	default:
		return nil, fmt.Errorf("check: unknown configuration %q (want baseline, fom, pbm, ranges, or usermode)", config)
	}
}

// newWorldMachine builds the shared machine skeleton: CPUs, params,
// and a DRAM+NVM physical memory.
func newWorldMachine(cpus int, seed uint64) (*sim.Machine, *sim.Params, *mem.Memory, error) {
	params := sim.DefaultParams()
	machine := sim.NewMachine(&params, cpus, seed)
	memory, err := mem.New(machine.Clock(), &params, mem.Config{
		DRAMFrames: dramFrames,
		NVMFrames:  nvmFrames,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return machine, &params, memory, nil
}

// objPath names the backing file of a shared object in worlds that
// materialize one.
func objPath(obj int) string { return fmt.Sprintf("/obj%d", obj) }

// fsPath prefixes harness file names so they never collide with
// object backing files.
func fsPath(path string) string { return "/" + path }

// sortedKeys returns a map's integer keys in ascending order, so
// world-internal iteration (fork copies, final sweeps) is
// deterministic.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
