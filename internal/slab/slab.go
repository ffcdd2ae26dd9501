// Package slab implements a Bonwick-style slab allocator on top of the
// buddy allocator. The simulated kernel uses it for fixed-size metadata
// objects (VMAs, inodes, page-table bookkeeping), and the paper proposes
// slab techniques as a low-overhead way to manage physical memory
// itself (§3.1: "We propose using techniques from heaps, such as slab
// allocators, to manage physical memory").
//
// A Cache carves objects of one size out of slabs, where each slab is a
// contiguous frame run obtained from the buddy allocator. The alloc and
// free fast paths charge one SlabOp; slab creation additionally pays
// the underlying buddy cost.
package slab

import (
	"fmt"

	"repro/internal/buddy"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Cache allocates fixed-size objects identified by their physical
// address.
type Cache struct {
	name    string
	objSize uint64
	perSlab int
	frames  uint64 // frames per slab

	clock  *sim.Clock
	params *sim.Params
	bud    *buddy.Allocator

	// partial slabs have both free and allocated objects; full slabs
	// have none free. Empty slabs are returned to the buddy allocator
	// immediately (no per-cache reserve), keeping accounting simple.
	partial []*slabT
	full    []*slabT

	byFrame mem.FrameTable[*slabT] // slab lookup for Free, over the pool's frames

	stats *metrics.Set
}

type slabT struct {
	start    mem.Frame
	frames   uint64
	free     []int // free object indices (LIFO)
	inUse    int
	allocSet map[int]bool
}

// minObjectsPerSlab controls slab sizing: a slab spans enough frames to
// hold at least this many objects (capped by the max buddy run).
const minObjectsPerSlab = 8

// NewCache creates an object cache. objSize is in bytes and must be
// between 8 bytes and 512 KiB.
func NewCache(name string, objSize uint64, clock *sim.Clock, params *sim.Params, bud *buddy.Allocator) (*Cache, error) {
	if objSize < 8 || objSize > 512<<10 {
		return nil, fmt.Errorf("slab: object size %d out of range [8, 512KiB]", objSize)
	}
	frames := uint64(1)
	for frames*mem.FrameSize/objSize < minObjectsPerSlab {
		frames *= 2
	}
	byFrame, err := mem.NewFrameTable[*slabT](bud.Base(), bud.Size())
	if err != nil {
		return nil, fmt.Errorf("slab %s: %w", name, err)
	}
	return &Cache{
		name:    name,
		objSize: objSize,
		perSlab: int(frames * mem.FrameSize / objSize),
		frames:  frames,
		clock:   clock,
		params:  params,
		bud:     bud,
		byFrame: byFrame,
		stats:   metrics.NewSet(),
	}, nil
}

// Name returns the cache name.
func (c *Cache) Name() string { return c.name }

// ObjectsPerSlab returns how many objects fit in one slab.
func (c *Cache) ObjectsPerSlab() int { return c.perSlab }

// Stats exposes counters: "allocs", "frees", "slabs_created",
// "slabs_destroyed".
func (c *Cache) Stats() *metrics.Set { return c.stats }

// Alloc returns the physical address of a free object.
func (c *Cache) Alloc() (mem.PhysAddr, error) {
	c.clock.Advance(c.params.SlabOp)
	if len(c.partial) == 0 {
		if err := c.grow(); err != nil {
			return 0, err
		}
	}
	s := c.partial[len(c.partial)-1]
	idx := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	s.allocSet[idx] = true
	s.inUse++
	if len(s.free) == 0 {
		c.partial = c.partial[:len(c.partial)-1]
		c.full = append(c.full, s)
	}
	c.stats.Counter("allocs").Inc()
	return s.start.Addr() + mem.PhysAddr(uint64(idx)*c.objSize), nil
}

// Free returns an object to the cache. It reports an error for
// addresses not currently allocated from this cache (double frees,
// foreign pointers).
func (c *Cache) Free(addr mem.PhysAddr) error {
	c.clock.Advance(c.params.SlabOp)
	s, idx, err := c.locate(addr)
	if err != nil {
		return err
	}
	if !s.allocSet[idx] {
		return fmt.Errorf("slab %s: double free of object at %#x", c.name, uint64(addr))
	}
	delete(s.allocSet, idx)
	wasFull := len(s.free) == 0
	s.free = append(s.free, idx)
	s.inUse--
	if wasFull {
		c.removeFrom(&c.full, s)
		c.partial = append(c.partial, s)
	}
	if s.inUse == 0 {
		c.removeFrom(&c.partial, s)
		for i := uint64(0); i < s.frames; i++ {
			c.byFrame.Set(s.start+mem.Frame(i), nil)
		}
		if err := c.bud.FreeRun(buddy.Run{Start: s.start, Count: s.frames}); err != nil {
			return fmt.Errorf("slab %s: returning empty slab: %w", c.name, err)
		}
		c.stats.Counter("slabs_destroyed").Inc()
	}
	c.stats.Counter("frees").Inc()
	return nil
}

func (c *Cache) locate(addr mem.PhysAddr) (*slabT, int, error) {
	s := c.byFrame.Get(addr.Frame())
	if s == nil {
		return nil, 0, fmt.Errorf("slab %s: address %#x not from this cache", c.name, uint64(addr))
	}
	off := uint64(addr) - uint64(s.start.Addr())
	if off%c.objSize != 0 {
		return nil, 0, fmt.Errorf("slab %s: address %#x not object-aligned", c.name, uint64(addr))
	}
	idx := int(off / c.objSize)
	if idx >= c.perSlab {
		return nil, 0, fmt.Errorf("slab %s: address %#x past last object", c.name, uint64(addr))
	}
	return s, idx, nil
}

func (c *Cache) grow() error {
	run, err := c.bud.AllocRun(c.frames)
	if err != nil {
		return fmt.Errorf("slab %s: grow: %w", c.name, err)
	}
	s := &slabT{
		start:    run.Start,
		frames:   run.Count,
		free:     make([]int, 0, c.perSlab),
		allocSet: make(map[int]bool),
	}
	for i := c.perSlab - 1; i >= 0; i-- {
		s.free = append(s.free, i)
	}
	for i := uint64(0); i < s.frames; i++ {
		c.byFrame.Set(run.Start+mem.Frame(i), s)
	}
	c.partial = append(c.partial, s)
	c.stats.Counter("slabs_created").Inc()
	return nil
}

func (c *Cache) removeFrom(list *[]*slabT, s *slabT) {
	for i, x := range *list {
		if x == s {
			(*list)[i] = (*list)[len(*list)-1]
			*list = (*list)[:len(*list)-1]
			return
		}
	}
}

// InUse returns the number of currently allocated objects.
func (c *Cache) InUse() int {
	n := 0
	for _, s := range c.partial {
		n += s.inUse
	}
	for _, s := range c.full {
		n += s.inUse
	}
	return n
}

// Slabs returns the number of live slabs.
func (c *Cache) Slabs() int { return len(c.partial) + len(c.full) }

// FootprintFrames returns the frames currently held by the cache.
func (c *Cache) FootprintFrames() uint64 {
	return uint64(c.Slabs()) * c.frames
}

// CheckInvariants validates per-slab free/allocated accounting.
func (c *Cache) CheckInvariants() error {
	check := func(s *slabT, wantFree bool) error {
		if len(s.free)+s.inUse != c.perSlab {
			return fmt.Errorf("slab %s: slab at %d accounts %d objects, want %d", c.name, s.start, len(s.free)+s.inUse, c.perSlab)
		}
		if wantFree && len(s.free) == 0 {
			return fmt.Errorf("slab %s: full slab on partial list", c.name)
		}
		if !wantFree && len(s.free) != 0 {
			return fmt.Errorf("slab %s: partial slab on full list", c.name)
		}
		seen := make(map[int]bool)
		for _, idx := range s.free {
			if idx < 0 || idx >= c.perSlab {
				return fmt.Errorf("slab %s: free index %d out of range", c.name, idx)
			}
			if seen[idx] {
				return fmt.Errorf("slab %s: index %d on free list twice", c.name, idx)
			}
			if s.allocSet[idx] {
				return fmt.Errorf("slab %s: index %d both free and allocated", c.name, idx)
			}
			seen[idx] = true
		}
		return nil
	}
	for _, s := range c.partial {
		if err := check(s, true); err != nil {
			return err
		}
	}
	for _, s := range c.full {
		if err := check(s, false); err != nil {
			return err
		}
	}
	return nil
}
