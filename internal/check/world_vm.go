package check

import (
	"repro/internal/ckpt"
	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/sim"
	"repro/internal/tier"
	"repro/internal/vm"
)

// vmBackend drives the baseline virtual-memory system: anonymous-private
// objects are demand-faulted anon mappings (fork is a real COW fork),
// shared objects are MAP_SHARED mappings of tmpfs files, and OpReclaim
// runs the page-out scanner against an unlimited swap device.
type vmBackend struct {
	k        *vm.Kernel
	fs       *memfs.FS           // PerPage (tmpfs) over NVM: shared objects + named files
	vas      map[int]*vmProc     // proc -> its address space
	objFiles map[int]*memfs.File // shared objects' backing files
}

// vmProc is one process's address space and the base of each object
// it maps.
type vmProc struct {
	as   *vm.AddressSpace
	base map[int]mem.VirtAddr
}

func buildVM(w *world, params *sim.Params, tiered bool, p *parts) error {
	cfg := vm.Config{
		PoolBase:   0,
		PoolFrames: dramFrames,
	}
	fsFrames := uint64(nvmFrames)
	if tiered {
		// The slow pool takes the top of NVM; tmpfs keeps the rest.
		fsFrames = nvmFrames - tierSlowFramesVM
		cfg.SlowPoolBase = mem.Frame(dramFrames + fsFrames)
		cfg.SlowPoolFrames = tierSlowFramesVM
	}
	k, err := vm.NewKernelFrom(w.m.Clock(), params, w.mem, cfg, &p.vm)
	if err != nil {
		return err
	}
	if tiered {
		// Promotions pump inside the kernel's own access paths; the
		// harness only scans.
		eng, err := tier.New(params, w.mem, tier.Smart, tierFastCapVM)
		if err != nil {
			return err
		}
		k.AttachTier(eng)
		w.scan = k.TierScan
	}
	fs, err := memfs.New("tmpfs", memfs.PerPage, w.m.Clock(), params, w.mem,
		mem.Frame(dramFrames), fsFrames)
	if err != nil {
		return err
	}
	as, err := k.NewAddressSpace()
	if err != nil {
		return err
	}
	w.fs = fs
	w.b = &vmBackend{
		k:        k,
		fs:       fs,
		vas:      map[int]*vmProc{0: {as: as, base: make(map[int]mem.VirtAddr)}},
		objFiles: make(map[int]*memfs.File),
	}
	return nil
}

func (b *vmBackend) mapNew(proc int, o *object) error {
	req := vm.MmapRequest{Pages: o.pages, Prot: rwProt, Anon: true}
	if o.shared {
		f, err := b.fs.Create(objPath(o.id), memfs.CreateOptions{})
		if err != nil {
			return err
		}
		if err := f.Truncate(o.pages * pageSize); err != nil {
			return err
		}
		b.objFiles[o.id] = f
		req = vm.MmapRequest{Pages: o.pages, Prot: rwProt, File: f}
	}
	return b.mmap(proc, o, req)
}

func (b *vmBackend) mmap(proc int, o *object, req vm.MmapRequest) error {
	p := b.vas[proc]
	va, err := p.as.Mmap(req)
	if err != nil {
		return err
	}
	p.base[o.id] = va
	return nil
}

func (b *vmBackend) unmap(proc int, o *object, last bool) error {
	p := b.vas[proc]
	if err := p.as.Munmap(p.base[o.id], o.pages); err != nil {
		return err
	}
	delete(p.base, o.id)
	f, ok := b.objFiles[o.id]
	if !last || !ok {
		return nil
	}
	delete(b.objFiles, o.id)
	if err := f.Close(); err != nil {
		return err
	}
	return b.fs.Unlink(objPath(o.id))
}

func (b *vmBackend) addr(proc int, o *object, page uint64) mem.VirtAddr {
	return b.vas[proc].base[o.id] + mem.VirtAddr(page*pageSize)
}

func (b *vmBackend) writeByte(proc int, o *object, page uint64, v byte) error {
	return b.vas[proc].as.WriteByteAt(b.addr(proc, o, page), v)
}

func (b *vmBackend) readByte(proc int, o *object, page uint64) (byte, error) {
	return b.vas[proc].as.ReadByteAt(b.addr(proc, o, page))
}

// fork is a real COW fork: the child inherits every mapping at the
// parent's addresses.
func (b *vmBackend) fork(parent, child int, objs []*object) error {
	p := b.vas[parent]
	as, err := p.as.Fork()
	if err != nil {
		return err
	}
	base := make(map[int]mem.VirtAddr, len(objs))
	for _, o := range objs {
		base[o.id] = p.base[o.id]
	}
	b.vas[child] = &vmProc{as: as, base: base}
	return nil
}

func (b *vmBackend) share(proc int, o *object) error {
	return b.mmap(proc, o, vm.MmapRequest{Pages: o.pages, Prot: rwProt, File: b.objFiles[o.id]})
}

func (b *vmBackend) reclaim(_ int, cur *sim.CPU) error {
	_, err := b.k.ReclaimPages(cur, reclaimWant)
	return err
}

func (b *vmBackend) migrate(proc int, cpu *sim.CPU) { b.vas[proc].as.RunOn(cpu) }

func (b *vmBackend) dirtyUnits(frames []mem.Frame) []ckpt.Unit {
	// Anonymous pool pages are page-granular; tmpfs frames coalesce
	// into the store's (per-page policy) extents.
	return append(b.k.DirtyUnits(frames), b.fs.DirtyUnits(frames)...)
}

// reclaimWant is how many frames one OpReclaim asks the baseline
// page-out scanner to free.
const reclaimWant = 64
