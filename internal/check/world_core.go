package check

import (
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/sim"
	"repro/internal/tier"
)

// coreBackend drives file-only memory with PBM translations, in either
// SharedPT ("pbm") or Ranges ("ranges") mode. Objects are mapped
// files accessed through virtual addresses; there is no page-fault
// path, so fork copies private objects eagerly (allocate + copy the
// observable byte of each page), while shared objects are simply
// mapped again — every process maps a file at the same PBM address.
type coreBackend struct {
	sys         *core.System
	mode        core.TranslationMode
	maps        map[int]*coreProc   // proc -> its process and mappings
	sharedFiles map[int]*memfs.File // shared objects' files
}

// coreProc is one process and its mapping of each object.
type coreProc struct {
	p    *core.Process
	maps map[int]*core.Mapping
}

func buildCore(w *world, params *sim.Params, tiered bool, p *parts) error {
	opts := core.Options{}
	if tiered {
		// Split DRAM: the page-table pool keeps the bottom half, the
		// tier's fast region takes frames above it (the default pool
		// would cover all of DRAM and overlap the fast region).
		opts.PTPoolBase = 0
		opts.PTPoolFrames = dramFrames / 2
	}
	sys, err := core.NewSystemFrom(w.m.Clock(), params, w.mem, opts, &p.core)
	if err != nil {
		return err
	}
	if tiered {
		// SharedPT migrates 512-page chunk extents, so its fast region
		// must hold several; ranges extents are small, and a small cap
		// keeps the tier under genuine pressure. Promotions pump inside
		// the access paths of core processes; the harness only scans.
		fastCap, fastFrames := uint64(tierFastCapPBM), uint64(tierFastRegionPBM)
		if w.name == "ranges" {
			fastCap, fastFrames = tierFastCapRanges, tierFastRegionRanges
		}
		eng, err := tier.New(params, w.mem, tier.Smart, fastCap)
		if err != nil {
			return err
		}
		if err := sys.AttachTier(eng, mem.Frame(dramFrames/2), fastFrames); err != nil {
			return err
		}
		w.scan = sys.TierScan
	}
	mode := core.SharedPT
	if w.name == "ranges" {
		mode = core.Ranges
	}
	b := &coreBackend{
		sys:         sys,
		mode:        mode,
		maps:        make(map[int]*coreProc),
		sharedFiles: make(map[int]*memfs.File),
	}
	if err := b.newProcess(0); err != nil {
		return err
	}
	w.fs = sys.FS()
	w.b = b
	return nil
}

func (b *coreBackend) newProcess(proc int) error {
	p, err := b.sys.NewProcess(b.mode)
	if err != nil {
		return err
	}
	b.maps[proc] = &coreProc{p: p, maps: make(map[int]*core.Mapping)}
	return nil
}

func (b *coreBackend) mapNew(proc int, o *object) error {
	if !o.shared {
		return b.allocPrivate(proc, o)
	}
	f, err := b.sys.CreateContiguousFile(objPath(o.id), o.pages,
		memfs.CreateOptions{Mode: rwProt}, b.mode == core.SharedPT)
	if err != nil {
		return err
	}
	b.sharedFiles[o.id] = f
	return b.share(proc, o)
}

func (b *coreBackend) allocPrivate(proc int, o *object) error {
	cp := b.maps[proc]
	m, err := cp.p.AllocVolatile(o.pages, rwProt)
	if err != nil {
		return err
	}
	cp.maps[o.id] = m
	return nil
}

func (b *coreBackend) unmap(proc int, o *object, last bool) error {
	cp := b.maps[proc]
	if err := cp.p.Unmap(cp.maps[o.id]); err != nil {
		return err
	}
	delete(cp.maps, o.id)
	f, ok := b.sharedFiles[o.id]
	if !last || !ok {
		return nil
	}
	delete(b.sharedFiles, o.id)
	if err := f.Close(); err != nil {
		return err
	}
	return b.sys.FS().Unlink(objPath(o.id))
}

func (b *coreBackend) writeByte(proc int, o *object, page uint64, v byte) error {
	cp := b.maps[proc]
	va, err := cp.maps[o.id].VAForOffset(page * pageSize)
	if err != nil {
		return err
	}
	return cp.p.WriteByteAt(va, v)
}

func (b *coreBackend) readByte(proc int, o *object, page uint64) (byte, error) {
	cp := b.maps[proc]
	va, err := cp.maps[o.id].VAForOffset(page * pageSize)
	if err != nil {
		return 0, err
	}
	return cp.p.ReadByteAt(va)
}

// fork builds a fresh process and inherits the parent's objects in one
// ascending pass, so the simulated allocation layout is a pure function
// of the trace: shared objects are mapped again, private ones allocated
// and copied byte 0 of each page — the only bytes the harness observes.
func (b *coreBackend) fork(parent, child int, objs []*object) error {
	if err := b.newProcess(child); err != nil {
		return err
	}
	for _, o := range objs {
		if o.shared {
			if err := b.share(child, o); err != nil {
				return err
			}
			continue
		}
		if err := b.allocPrivate(child, o); err != nil {
			return err
		}
		for pg := uint64(0); pg < o.pages; pg++ {
			v, err := b.readByte(parent, o, pg)
			if err != nil {
				return err
			}
			if err := b.writeByte(child, o, pg, v); err != nil {
				return err
			}
		}
	}
	return nil
}

func (b *coreBackend) share(proc int, o *object) error {
	cp := b.maps[proc]
	m, err := cp.p.MapFile(b.sharedFiles[o.id], rwProt)
	if err != nil {
		return err
	}
	cp.maps[o.id] = m
	return nil
}

// reclaim does nothing: file-only memory reclaims whole discardable
// files, and the harness holds references to everything it creates, so
// there is nothing to discard — by design, not by accident, which the
// differential content comparison confirms.
func (b *coreBackend) reclaim(int, *sim.CPU) error { return nil }

func (b *coreBackend) migrate(proc int, cpu *sim.CPU) { b.maps[proc].p.RunOn(cpu) }

func (b *coreBackend) dirtyUnits(frames []mem.Frame) []ckpt.Unit {
	return b.sys.DirtyUnits(frames)
}
