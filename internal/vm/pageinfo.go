package vm

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
)

// PageFlags is the per-frame status bitfield — the analogue of the
// Linux struct page flags the paper's motivation counts (25 flags, 38
// fields). The simulator tracks the subset that drives behaviour.
type PageFlags uint32

const (
	// PGAnon marks an anonymous page (swap-backed).
	PGAnon PageFlags = 1 << iota
	// PGFile marks a file-backed page (storage lives in the file
	// system; reclaim just unmaps it).
	PGFile
	// PGReferenced is the second-chance bit set on every access.
	PGReferenced
	// PGDirty marks modified pages.
	PGDirty
	// PGActive marks membership in the active list.
	PGActive
	// PGLRU marks membership in either LRU list.
	PGLRU
	// PGMlocked pins the page against reclaim (mlock).
	PGMlocked
	// PGPinned pins the page for device access (DMA).
	PGPinned
	// PGSwapBacked marks pages whose eviction path is swap.
	PGSwapBacked
	// PGWriteback marks pages being written to swap.
	PGWriteback
	// PGReserved marks kernel-reserved pages.
	PGReserved
	// PGSlab marks slab pages.
	PGSlab
	// PGCompound marks the head of a 2 MiB compound (huge) page; its
	// frame is the first of a 512-frame run. Compound pages are
	// unevictable in this simulator.
	PGCompound
)

// PageInfo is the per-frame metadata record.
type PageInfo struct {
	Frame mem.Frame
	Flags PageFlags
	// MapCount is the number of PTEs referencing the frame.
	MapCount int
	// rmap records every (address space, va) mapping the frame, the
	// reverse map reclaim needs to unmap pages.
	rmap []rmapEntry

	// list linkage for the LRU lists
	prev, next *PageInfo
	list       *pageList
}

type rmapEntry struct {
	as *AddressSpace
	va mem.VirtAddr
}

// Mapped reports whether any PTE references the frame.
func (p *PageInfo) Mapped() bool { return p.MapCount > 0 }

// reset scrubs the record before it enters the recycled pool. The rmap
// backing array is kept (recycling exists to avoid reallocating it)
// but its full capacity is zeroed: entries past len(rmap) would
// otherwise retain dangling *AddressSpace pointers from the record's
// previous life, keeping dead address spaces reachable and risking
// their resurrection if a later append exposes them.
func (p *PageInfo) reset() {
	rmap := p.rmap[:cap(p.rmap)]
	for i := range rmap {
		rmap[i] = rmapEntry{}
	}
	*p = PageInfo{rmap: rmap[:0]}
}

// maxSparePages bounds the kernel's recycled PageInfo pool.
const maxSparePages = 65536

// trackPage creates (or returns) metadata for a frame, in the domain
// owning it. cur is the CPU performing the work.
func (k *Kernel) trackPage(cur *sim.CPU, f mem.Frame, flags PageFlags) *PageInfo {
	d := k.domainOf(f)
	if p := d.pages.Get(f); p != nil {
		return p
	}
	var p *PageInfo
	if n := len(d.sparePages); n > 0 {
		p = d.sparePages[n-1]
		d.sparePages[n-1] = nil
		d.sparePages = d.sparePages[:n-1]
		p.Frame = f
		p.Flags = flags
	} else {
		p = &PageInfo{Frame: f, Flags: flags}
	}
	d.put(f, p)
	k.chargeMeta(cur, 1)
	if k.tier != nil && flags&PGAnon != 0 {
		k.tier.Track(f)
	}
	return p
}

// forgetPage drops a frame's metadata and recycles the record into its
// domain's spare pool.
func (k *Kernel) forgetPage(cur *sim.CPU, p *PageInfo) {
	if k.tier != nil && p.Flags&PGAnon != 0 {
		k.tier.Untrack(p.Frame)
	}
	d := k.domainOf(p.Frame)
	if p.list != nil {
		p.list.remove(p)
	}
	d.drop(p.Frame)
	k.chargeMeta(cur, 1)
	if len(d.sparePages) < maxSparePages {
		p.reset()
		d.sparePages = append(d.sparePages, p)
	}
}

// page returns metadata for a tracked frame.
func (k *Kernel) page(f mem.Frame) (*PageInfo, bool) {
	p := k.domainOf(f).pages.Get(f)
	return p, p != nil
}

// addRmap records a mapping of the frame.
func (k *Kernel) addRmap(cur *sim.CPU, p *PageInfo, as *AddressSpace, va mem.VirtAddr) {
	p.rmap = append(p.rmap, rmapEntry{as: as, va: va})
	p.MapCount++
	k.chargeMeta(cur, 1)
}

// delRmap removes a mapping record.
func (k *Kernel) delRmap(cur *sim.CPU, p *PageInfo, as *AddressSpace, va mem.VirtAddr) error {
	for i, e := range p.rmap {
		if e.as == as && e.va == va {
			p.rmap = append(p.rmap[:i], p.rmap[i+1:]...)
			p.MapCount--
			k.chargeMeta(cur, 1)
			return nil
		}
	}
	return fmt.Errorf("vm: rmap entry for frame %d va %#x not found", p.Frame, uint64(va))
}

// pageList is an intrusive doubly linked list of PageInfo (one LRU
// list).
type pageList struct {
	head, tail *PageInfo
	count      int
}

func newPageList() *pageList { return &pageList{} }

func (l *pageList) pushBack(p *PageInfo) {
	if p.list != nil {
		p.list.remove(p)
	}
	p.list = l
	p.prev = l.tail
	p.next = nil
	if l.tail != nil {
		l.tail.next = p
	} else {
		l.head = p
	}
	l.tail = p
	l.count++
}

func (l *pageList) popFront() *PageInfo {
	p := l.head
	if p == nil {
		return nil
	}
	l.remove(p)
	return p
}

func (l *pageList) remove(p *PageInfo) {
	if p.list != l {
		return
	}
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		l.head = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		l.tail = p.prev
	}
	p.prev, p.next, p.list = nil, nil, nil
	l.count--
}

func (l *pageList) len() int { return l.count }

// lruInsert places a newly faulted page on its domain's inactive list.
func (k *Kernel) lruInsert(cur *sim.CPU, p *PageInfo) {
	d := k.domainOf(p.Frame)
	p.Flags |= PGLRU
	p.Flags &^= PGActive
	d.inactive.pushBack(p)
	k.chargeMeta(cur, 1)
}

// lruActivate promotes a referenced page to its domain's active list.
func (k *Kernel) lruActivate(cur *sim.CPU, p *PageInfo) {
	d := k.domainOf(p.Frame)
	p.Flags |= PGActive
	d.active.pushBack(p)
	k.chargeMeta(cur, 1)
}

// LRUStats returns the lengths of the active and inactive lists,
// summed over the global domain and every arena.
func (k *Kernel) LRUStats() (active, inactive int) {
	active, inactive = k.meta.active.len(), k.meta.inactive.len()
	for _, ar := range k.arenas {
		active += ar.meta.active.len()
		inactive += ar.meta.inactive.len()
	}
	return active, inactive
}
