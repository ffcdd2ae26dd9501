package check

import (
	"repro/internal/ckpt"
	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/sim"
	"repro/internal/usermode"
)

// usermodeBackend drives the fifth configuration: user-mode
// software-managed physical memory. Every process owns batches of
// granted extents and runs a heap.Heap over them (so the user-level
// allocator itself sits on the differential fast path); addresses are
// identity-mapped and accesses pay software bounds checks instead of
// page walks. Shared objects are refcounted shared segments at a
// single identity address. Like fom, fork copies private objects
// eagerly and named files live in an extent-based memfs store; unlike
// every other configuration, OpReclaim does observable-free real work —
// it trims the heap's reserve arenas and revokes wholly-free grants
// back to the kernel pool.
type usermodeBackend struct {
	gt     *usermode.GrantTable
	fs     *memfs.FS // named files, Extent policy over NVM
	procs  map[int]*umProc
	priv   map[int]map[int]mem.VirtAddr // proc -> obj -> heap payload
	shared map[int]*usermode.SharedSeg
}

// umProc pairs a usermode process with its private heap.
type umProc struct {
	p *usermode.Process
	h *heap.Heap
}

// usermodePoolBase keeps the grant pool clear of the DRAM bottom the
// tiered file store uses as its fast region (tierFastRegionFOM).
const usermodePoolBase = 1024

func buildUsermode(w *world, params *sim.Params, tiered bool, _ *parts) error {
	fs, err := memfs.New("usermode", memfs.Extent, w.m.Clock(), params, w.mem,
		mem.Frame(dramFrames), nvmFrames)
	if err != nil {
		return err
	}
	if tiered {
		// The grant extents have no translation layer to update, so the
		// engine migrates file extents (as in fom); grants stay put.
		if err := attachFileTier(w, fs, params); err != nil {
			return err
		}
	}
	gt, err := usermode.NewGrantTable(w.m.Clock(), params, w.mem, usermode.Config{
		PoolBase:   usermodePoolBase,
		PoolFrames: dramFrames - usermodePoolBase,
	})
	if err != nil {
		return err
	}
	p0, err := gt.NewProcessOn(w.m.BootCPU())
	if err != nil {
		return err
	}
	w.fs = fs
	w.b = &usermodeBackend{
		gt:     gt,
		fs:     fs,
		procs:  map[int]*umProc{0: {p: p0, h: heap.NewOn(p0)}},
		priv:   map[int]map[int]mem.VirtAddr{0: {}},
		shared: make(map[int]*usermode.SharedSeg),
	}
	return nil
}

func (b *usermodeBackend) mapNew(proc int, o *object) error {
	u := b.procs[proc]
	if o.shared {
		seg, err := b.gt.NewShared(u.p, o.pages)
		if err != nil {
			return err
		}
		b.shared[o.id] = seg
		return nil
	}
	addr, err := u.h.Alloc(o.pages * pageSize)
	if err != nil {
		return err
	}
	b.priv[proc][o.id] = addr
	return nil
}

func (b *usermodeBackend) unmap(proc int, o *object, last bool) error {
	u := b.procs[proc]
	if !o.shared {
		addr := b.priv[proc][o.id]
		delete(b.priv[proc], o.id)
		return u.h.Free(addr)
	}
	seg := b.shared[o.id]
	if last {
		delete(b.shared, o.id)
	}
	return u.p.UnmapShared(seg)
}

// addr resolves the identity address of page of the object's content
// as seen by proc.
func (b *usermodeBackend) addr(proc int, o *object, page uint64) mem.VirtAddr {
	base := b.priv[proc][o.id]
	if o.shared {
		base = b.shared[o.id].Base()
	}
	return base + mem.VirtAddr(page*pageSize)
}

func (b *usermodeBackend) writeByte(proc int, o *object, page uint64, v byte) error {
	return b.procs[proc].p.WriteBuf(b.addr(proc, o, page), []byte{v})
}

func (b *usermodeBackend) readByte(proc int, o *object, page uint64) (byte, error) {
	var buf [1]byte
	if err := b.procs[proc].p.ReadBuf(b.addr(proc, o, page), buf[:]); err != nil {
		return 0, err
	}
	return buf[0], nil
}

// fork joins the parent's shared segments, then copies its private
// objects, both in object-ID order for a deterministic layout.
func (b *usermodeBackend) fork(parent, child int, objs []*object) error {
	pp := b.procs[parent].p
	cp, err := b.gt.NewProcessOn(pp.CPU())
	if err != nil {
		return err
	}
	u := &umProc{p: cp, h: heap.NewOn(cp)}
	b.procs[child] = u
	b.priv[child] = make(map[int]mem.VirtAddr)
	for _, o := range objs {
		if o.shared {
			if err := cp.MapShared(b.shared[o.id]); err != nil {
				return err
			}
		}
	}
	var buf [1]byte
	for _, o := range objs {
		if o.shared {
			continue
		}
		src := b.priv[parent][o.id]
		dst, err := u.h.Alloc(o.pages * pageSize)
		if err != nil {
			return err
		}
		for pg := uint64(0); pg < o.pages; pg++ {
			if err := pp.ReadBuf(src+mem.VirtAddr(pg*pageSize), buf[:]); err != nil {
				return err
			}
			if err := cp.WriteBuf(dst+mem.VirtAddr(pg*pageSize), buf[:]); err != nil {
				return err
			}
		}
		b.priv[child][o.id] = dst
	}
	return nil
}

func (b *usermodeBackend) share(proc int, o *object) error {
	return b.procs[proc].p.MapShared(b.shared[o.id])
}

// reclaim is observably a no-op, but real work here: release the heap's
// cached empty arenas, then revoke every wholly-free grant.
func (b *usermodeBackend) reclaim(proc int, _ *sim.CPU) error {
	u := b.procs[proc]
	if err := u.h.TrimReserves(); err != nil {
		return err
	}
	_, err := u.p.Reclaim()
	return err
}

func (b *usermodeBackend) migrate(proc int, cpu *sim.CPU) { b.procs[proc].p.RunOn(cpu) }

func (b *usermodeBackend) dirtyUnits(frames []mem.Frame) []ckpt.Unit {
	// Grants and shared segments claim the DRAM pool; the file store
	// claims its NVM extents.
	return append(b.gt.DirtyUnits(frames), b.fs.DirtyUnits(frames)...)
}
