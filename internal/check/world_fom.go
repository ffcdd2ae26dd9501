package check

import (
	"repro/internal/ckpt"
	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/sim"
	"repro/internal/tier"
)

// fomBackend drives file-only memory through the syscall interface
// alone: every object is an extent-based memfs file and every access
// is a read/write at a byte offset. There are no translations, so
// fork copies private objects eagerly (the harness's observable
// surface is byte 0 of every page, which keeps the copy cheap),
// reclaim and migration are no-ops, and the differential comparison
// pins the mapped configurations to the same semantics.
type fomBackend struct {
	fs     *memfs.FS                   // Extent policy over NVM
	priv   map[int]map[int]*memfs.File // proc -> obj -> private copy
	shared map[int]*memfs.File
}

func buildFOM(w *world, params *sim.Params, tiered bool) error {
	fs, err := memfs.New("fom", memfs.Extent, w.m.Clock(), params, w.mem,
		mem.Frame(dramFrames), nvmFrames)
	if err != nil {
		return err
	}
	if tiered {
		// DRAM is otherwise unused here; its bottom becomes the fast
		// tier. The FS itself is the backend: single-page extent-split
		// migration.
		if err := attachFileTier(w, fs, params); err != nil {
			return err
		}
	}
	w.fs = fs
	w.b = &fomBackend{
		fs:     fs,
		priv:   map[int]map[int]*memfs.File{0: {}},
		shared: make(map[int]*memfs.File),
	}
	return nil
}

// attachFileTier gives an extent file store a fast tier at the bottom
// of DRAM. The store's read/write paths have no CPU handle, so the
// world pumps its engine after every operation.
func attachFileTier(w *world, fs *memfs.FS, params *sim.Params) error {
	eng, err := tier.New(params, w.mem, tier.Smart, tierFastCapFOM)
	if err != nil {
		return err
	}
	if err := fs.AttachTier(eng, 0, tierFastRegionFOM); err != nil {
		return err
	}
	w.pump, w.scan = eng, eng.Scan
	return nil
}

// newObjectFile allocates one single-extent anonymous file sized for
// an object — the O(1) allocation path.
func (b *fomBackend) newObjectFile(pages uint64) (*memfs.File, error) {
	f, err := b.fs.CreateTemp("obj", memfs.CreateOptions{})
	if err != nil {
		return nil, err
	}
	if err := f.EnsureContiguous(pages); err != nil {
		return nil, err
	}
	return f, nil
}

func (b *fomBackend) mapNew(proc int, o *object) error {
	f, err := b.newObjectFile(o.pages)
	if err != nil {
		return err
	}
	if o.shared {
		b.shared[o.id] = f
	} else {
		b.priv[proc][o.id] = f
	}
	return nil
}

func (b *fomBackend) unmap(proc int, o *object, last bool) error {
	if !o.shared {
		f := b.priv[proc][o.id]
		delete(b.priv[proc], o.id)
		return f.Close()
	}
	if !last {
		return nil
	}
	f := b.shared[o.id]
	delete(b.shared, o.id)
	return f.Close()
}

// file resolves the file holding the object's content as seen by proc.
func (b *fomBackend) file(proc int, o *object) *memfs.File {
	if o.shared {
		return b.shared[o.id]
	}
	return b.priv[proc][o.id]
}

func (b *fomBackend) writeByte(proc int, o *object, page uint64, v byte) error {
	_, err := b.file(proc, o).WriteAt([]byte{v}, page*pageSize)
	return err
}

func (b *fomBackend) readByte(proc int, o *object, page uint64) (byte, error) {
	var buf [1]byte
	if _, err := b.file(proc, o).ReadAt(buf[:], page*pageSize); err != nil {
		return 0, err
	}
	return buf[0], nil
}

// fork copies the private objects into fresh files, byte 0 of each
// page — the only bytes the harness ever writes, so each copy becomes
// observably identical. Shared objects need no work.
func (b *fomBackend) fork(parent, child int, objs []*object) error {
	b.priv[child] = make(map[int]*memfs.File)
	var buf [1]byte
	for _, o := range objs {
		if o.shared {
			continue
		}
		src := b.priv[parent][o.id]
		dst, err := b.newObjectFile(o.pages)
		if err != nil {
			return err
		}
		for pg := uint64(0); pg < o.pages; pg++ {
			if _, err := src.ReadAt(buf[:], pg*pageSize); err != nil {
				return err
			}
			if _, err := dst.WriteAt(buf[:], pg*pageSize); err != nil {
				return err
			}
		}
		b.priv[child][o.id] = dst
	}
	return nil
}

func (b *fomBackend) share(int, *object) error { return nil }

// reclaim and migrate are no-ops: no pages to reclaim, no per-CPU
// translation state.
func (b *fomBackend) reclaim(int, *sim.CPU) error { return nil }

func (b *fomBackend) migrate(int, *sim.CPU) {}

func (b *fomBackend) dirtyUnits(frames []mem.Frame) []ckpt.Unit {
	return b.fs.DirtyUnits(frames)
}
