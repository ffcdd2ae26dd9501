package check

import (
	"fmt"
	"sort"

	"repro/internal/ckpt"
	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/pagetable"
	"repro/internal/sim"
	"repro/internal/tier"
)

// A world is one memory-system configuration under differential test.
// It owns everything the configurations share — the machine, physical
// memory, the named-file store, and the object table — and reduces the
// configuration itself to a backend of primitives. Worlds receive only
// operations the model declared valid, so any error is a divergence
// and fails the run. The world keeps its own object table instead of
// reading the model's, so the oracle and the subject stay independent.
type world struct {
	name string
	m    *sim.Machine
	mem  *mem.Memory
	b    backend

	fs    *memfs.FS              // the named-file store
	files map[string]*memfs.File // live named files
	objs  map[int]*object        // live objects

	// pump is the tier engine the harness pumps after every operation
	// (file stores, whose data paths have no CPU handle); nil where the
	// configuration pumps inside its own access paths. scan is the
	// periodic hotness scan; nil without a tier.
	pump *tier.Engine
	scan func(cur *sim.CPU, batch int)
}

// object is one live memory object in a world's object table.
type object struct {
	id     int
	pages  uint64
	shared bool
	procs  map[int]bool // processes mapping it
}

// A backend is one configuration's primitives. The world hands each
// call what it already knows (the object's size and sharing, whether
// an unmap was the last, the objects a fork inherits), so a backend
// keeps only the handles its own API returns.
type backend interface {
	// mapNew creates object o and maps it into proc.
	mapNew(proc int, o *object) error
	// unmap removes proc's mapping of o; last reports that no process
	// maps o any more, so its backing can be released.
	unmap(proc int, o *object, last bool) error
	writeByte(proc int, o *object, page uint64, v byte) error
	readByte(proc int, o *object, page uint64) (byte, error)
	// fork clones parent into child; objs are the parent's mapped
	// objects in ascending ID order.
	fork(parent, child int, objs []*object) error
	// share maps the existing shared object o into proc.
	share(proc int, o *object) error
	reclaim(proc int, cur *sim.CPU) error
	migrate(proc int, cpu *sim.CPU)
	// dirtyUnits maps a dirty-frame set onto checkpoint units by asking
	// each subsystem to claim the frames it owns — extents for file
	// stores, grants for usermode, single pages for the baseline. Every
	// dirty frame must be covered; the crash-recover stage fails on
	// gaps (see persist_incr.go).
	dirtyUnits(frames []mem.Frame) []ckpt.Unit
	// release hands the configuration's host storage to p and leaves
	// it unusable (see parts).
	release(p *parts) error
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

// newWorld builds the named configuration on a fresh machine with CPUs,
// params, and a DRAM+NVM physical memory. With tiered set, the
// configuration attaches a tier.Engine under the Smart policy — the
// bidirectional one, so promotions, demotions, and swaps all happen on
// a long enough trace. The world's host storage comes from p where it
// has some (see parts); p may be nil, which builds it fresh.
func newWorld(config string, cpus int, seed uint64, tiered bool, p *parts) (*world, error) {
	var build func(w *world, params *sim.Params, tiered bool, p *parts) error
	switch config {
	case "baseline":
		build = buildVM
	case "fom":
		build = buildFOM
	case "pbm", "ranges":
		build = buildCore
	case "usermode":
		build = buildUsermode
	default:
		return nil, fmt.Errorf("check: unknown configuration %q (want baseline, fom, pbm, ranges, or usermode)", config)
	}
	params := sim.DefaultParams()
	machine := sim.NewMachine(&params, cpus, seed)
	memory, err := mem.New(machine.Clock(), &params, mem.Config{
		DRAMFrames: dramFrames,
		NVMFrames:  nvmFrames,
	})
	if err != nil {
		return nil, err
	}
	if p == nil {
		p = &parts{}
	}
	memory.Adopt(&p.mem)
	w := &world{
		name:  config,
		m:     machine,
		mem:   memory,
		files: make(map[string]*memfs.File),
		objs:  make(map[int]*object),
	}
	if err := build(w, &params, tiered, p); err != nil {
		return nil, err
	}
	return w, nil
}

// apply executes one non-read operation.
func (w *world) apply(op Op) error {
	switch op.Kind {
	case OpMap:
		o := &object{id: op.Obj, pages: op.Pages, shared: op.Shared, procs: map[int]bool{op.Proc: true}}
		w.objs[op.Obj] = o
		return w.b.mapNew(op.Proc, o)

	case OpUnmap:
		o := w.objs[op.Obj]
		delete(o.procs, op.Proc)
		last := len(o.procs) == 0
		if last {
			delete(w.objs, op.Obj)
		}
		return w.b.unmap(op.Proc, o, last)

	case OpWrite:
		return w.b.writeByte(op.Proc, w.objs[op.Obj], op.Page, op.Val)

	case OpFork:
		var inherited []*object
		for _, id := range sortedKeys(w.objs) {
			if o := w.objs[id]; o.procs[op.Proc] {
				o.procs[op.Child] = true
				inherited = append(inherited, o)
			}
		}
		return w.b.fork(op.Proc, op.Child, inherited)

	case OpShare:
		o := w.objs[op.Obj]
		o.procs[op.Proc] = true
		return w.b.share(op.Proc, o)

	case OpReclaim:
		return w.b.reclaim(op.Proc, w.m.Current())

	case OpMigrate:
		w.b.migrate(op.Proc, w.m.CPU(op.CPU))
		return nil

	case OpFSCreate:
		f, err := w.fs.Create(fsPath(op.Path), memfs.CreateOptions{})
		if err != nil {
			return err
		}
		w.files[op.Path] = f
		return nil

	case OpFSWrite:
		_, err := w.files[op.Path].WriteAt([]byte{op.Val}, op.Page*pageSize)
		return err

	case OpFSDelete:
		if err := w.files[op.Path].Close(); err != nil {
			return err
		}
		delete(w.files, op.Path)
		return w.fs.Unlink(fsPath(op.Path))
	}
	return fmt.Errorf("check: %s world cannot apply %s", w.name, op.Kind)
}

// readback reads byte 0 of one page of a live object through the given
// process's view.
func (w *world) readback(obj, proc int, page uint64) (byte, error) {
	return w.b.readByte(proc, w.objs[obj], page)
}

// fileByte reads byte 0 of one page of a named file.
func (w *world) fileByte(path string, page uint64) (byte, error) {
	var b [1]byte
	if _, err := w.files[path].ReadAt(b[:], page*pageSize); err != nil {
		return 0, err
	}
	return b[0], nil
}

// check runs the machine-wide invariant sweep.
func (w *world) check() error { return w.m.CheckInvariants() }

// tierStep drives the tier engine after operation i: the promotion
// pump where the data path has no CPU handle, then the periodic
// hotness scan, both charged to the machine's current CPU. No-op
// without tiering.
func (w *world) tierStep(i int) {
	if w.pump != nil {
		w.pump.Pump(w.m.Current())
	}
	if w.scan != nil && (i+1)%tierScanEvery == 0 {
		w.scan(w.m.Current(), tierScanBatch)
	}
}

// machine exposes the world's simulated machine (persistence captures
// its state; see persist.go).
func (w *world) machine() *sim.Machine { return w.m }

// memory exposes the world's physical memory (persistence checksums its
// content and injects crashes).
func (w *world) memory() *mem.Memory { return w.mem }

// step advances the model by trace op i and, when the model accepts it,
// applies it to every world — or, for a read, compares each world's
// byte with the model's — then takes each world's tier step. Invalid
// ops (a prerequisite removed by the shrinker) are skipped everywhere.
func step(mdl *model, worlds []*world, i int, op Op) *Failure {
	valid, want := mdl.apply(op)
	if !valid {
		return nil
	}
	for _, w := range worlds {
		if op.Kind == OpRead {
			got, err := w.readback(op.Obj, op.Proc, op.Page)
			if err != nil {
				return &Failure{OpIndex: i, World: w.name, Reason: fmt.Sprintf("%s: %v", op, err)}
			}
			if got != want {
				return &Failure{OpIndex: i, World: w.name,
					Reason: fmt.Sprintf("%s: read %#02x, model says %#02x", op, got, want)}
			}
		} else if err := w.apply(op); err != nil {
			return &Failure{OpIndex: i, World: w.name, Reason: fmt.Sprintf("%s: %v", op, err)}
		}
		w.tierStep(i)
	}
	return nil
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
