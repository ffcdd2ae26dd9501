// Package buddy implements a binary buddy allocator over physical
// frames, in the style of the Linux page allocator. It is the
// simulator's primary physical-memory allocator: the baseline VM
// allocates single frames from it on every anonymous fault, the file
// systems allocate block runs from it, and file-only memory allocates
// whole extents from it.
//
// Every free-list operation (pop, push, split, coalesce) costs one
// BuddyOp of virtual time, so allocation cost scales with the number of
// list manipulations exactly as in a real kernel. An operation sums its
// list manipulations and advances the clock once.
package buddy

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// MaxOrder is the largest supported block order: order 18 is
// 2^18 frames = 1 GiB, matching the largest x86-64 page size.
const MaxOrder = 18

// Allocator manages the frames [base, base+size). The managed size
// need not be a power of two; the range is carved into maximal
// naturally aligned power-of-two blocks at construction.
type Allocator struct {
	clock  *sim.Clock
	params *sim.Params

	base mem.Frame
	size uint64

	// heads[o] is the offset from base of the first free block of
	// order o, or none. Free blocks form doubly linked lists threaded
	// through their table entries.
	heads [MaxOrder + 1]uint32
	// table holds one entry per block head, free or allocated; every
	// other frame's entry is zero.
	table mem.FrameTable[entry]

	nFree     [MaxOrder + 1]int // free blocks per order
	nAlloc    int               // allocated blocks
	freeCount uint64

	stats *metrics.Set
	// Cached counters for the per-block hot paths.
	cAllocs, cFrees, cSplits, cCoalesces, cAllocRuns *metrics.Counter
}

// entry is one block head's state: the free-list links (offsets from
// base; zero unless the block is free) and whether the block is free
// or allocated, at which order.
type entry struct {
	prev, next uint32
	state      uint8
}

// Entry states: stateFree or stateAlloc, or'ed with the block's order.
// The zero state means the frame heads no block.
const (
	stateFree  = 0x40
	stateAlloc = 0x80
	orderMask  = 0x3f
)

func (e entry) order() int  { return int(e.state & orderMask) }
func (e entry) free() bool  { return e.state&stateFree != 0 }
func (e entry) alloc() bool { return e.state&stateAlloc != 0 }

func (e entry) String() string {
	switch {
	case e.free():
		return fmt.Sprintf("free order %d", e.order())
	case e.alloc():
		return fmt.Sprintf("allocated order %d", e.order())
	}
	return "no-block"
}

// none marks list ends; no managed offset reaches it.
const none = ^uint32(0)

// New creates an allocator over [base, base+size). All frames start
// free. Ranges of more than mem.MaxTableFrames frames are rejected:
// list links are 32-bit offsets.
func New(clock *sim.Clock, params *sim.Params, base mem.Frame, size uint64) (*Allocator, error) {
	if size == 0 {
		return nil, fmt.Errorf("buddy: empty range")
	}
	table, err := mem.NewFrameTable[entry](base, size)
	if err != nil {
		return nil, fmt.Errorf("buddy: %w", err)
	}
	a := &Allocator{
		clock:  clock,
		params: params,
		base:   base,
		size:   size,
		table:  table,
		stats:  metrics.NewSet(),
	}
	a.cAllocs = a.stats.Counter("allocs")
	a.cFrees = a.stats.Counter("frees")
	a.cSplits = a.stats.Counter("splits")
	a.cCoalesces = a.stats.Counter("coalesces")
	a.cAllocRuns = a.stats.Counter("alloc_runs")
	for i := range a.heads {
		a.heads[i] = none
	}
	// Seed the free lists with maximal aligned blocks covering the
	// range, without charging virtual time (boot-time initialization).
	cur := base
	remaining := size
	for remaining > 0 {
		o := maxOrderFor(cur, remaining)
		a.pushFree(cur, o)
		cur += mem.Frame(uint64(1) << o)
		remaining -= uint64(1) << o
	}
	a.freeCount = size
	return a, nil
}

// maxOrderFor returns the largest order such that a block at frame f is
// naturally aligned and fits in remaining frames.
func maxOrderFor(f mem.Frame, remaining uint64) int {
	o := MaxOrder
	for o > 0 {
		blk := uint64(1) << o
		if uint64(f)%blk == 0 && blk <= remaining {
			break
		}
		o--
	}
	return o
}

// Base returns the first managed frame.
func (a *Allocator) Base() mem.Frame { return a.base }

// Size returns the number of managed frames.
func (a *Allocator) Size() uint64 { return a.size }

// Contains reports whether the n frames starting at f all lie inside
// the managed range.
func (a *Allocator) Contains(f mem.Frame, n uint64) bool {
	return f >= a.base && uint64(f-a.base) <= a.size && n <= a.size-uint64(f-a.base)
}

// FreeFrames returns the number of currently free frames.
func (a *Allocator) FreeFrames() uint64 { return a.freeCount }

// Stats exposes the allocator's counters: "allocs", "frees", "splits",
// "coalesces", "alloc_runs".
func (a *Allocator) Stats() *metrics.Set { return a.stats }

// OrderFor returns the smallest order whose block holds n frames.
// It returns an error if n exceeds the maximum block size.
func OrderFor(n uint64) (int, error) {
	if n == 0 {
		return 0, fmt.Errorf("buddy: zero-size allocation")
	}
	for o := 0; o <= MaxOrder; o++ {
		if uint64(1)<<o >= n {
			return o, nil
		}
	}
	return 0, fmt.Errorf("buddy: %d frames exceeds max order %d block", n, MaxOrder)
}

// list helpers; callers count one BuddyOp per push/pop/remove.

// frame converts a list offset to its frame.
func (a *Allocator) frame(off uint32) mem.Frame { return a.base + mem.Frame(off) }

func (a *Allocator) pushFree(f mem.Frame, o int) {
	off := uint32(f - a.base)
	h := a.heads[o]
	if h != none {
		a.table.Ptr(a.frame(h)).prev = off
	}
	*a.table.Ptr(f) = entry{prev: none, next: h, state: stateFree | uint8(o)}
	a.heads[o] = off
	a.nFree[o]++
}

// removeFree unlinks the free block at f and clears its entry.
func (a *Allocator) removeFree(f mem.Frame) {
	e := a.table.Ptr(f)
	o := e.order()
	if e.prev != none {
		a.table.Ptr(a.frame(e.prev)).next = e.next
	} else {
		a.heads[o] = e.next
	}
	if e.next != none {
		a.table.Ptr(a.frame(e.next)).prev = e.prev
	}
	*e = entry{}
	a.nFree[o]--
}

// setAllocated records an allocated block of the given order at f.
func (a *Allocator) setAllocated(f mem.Frame, o int) {
	*a.table.Ptr(f) = entry{state: stateAlloc | uint8(o)}
	a.nAlloc++
}

// clearAllocated drops the allocated block at f.
func (a *Allocator) clearAllocated(f mem.Frame) {
	a.table.Set(f, entry{})
	a.nAlloc--
}

func (a *Allocator) charge(ops int) {
	a.clock.Advance(sim.Time(ops) * a.params.BuddyOp)
}

// Alloc allocates one naturally aligned block of the given order and
// returns its first frame. It returns an error if no memory of that
// size (or larger, to split) is free.
func (a *Allocator) Alloc(order int) (mem.Frame, error) {
	if order < 0 || order > MaxOrder {
		return 0, fmt.Errorf("buddy: invalid order %d", order)
	}
	o := order
	for o <= MaxOrder && a.heads[o] == none {
		o++
	}
	if o > MaxOrder {
		return 0, fmt.Errorf("buddy: out of memory for order-%d block (%d frames free)", order, a.freeCount)
	}
	f := a.frame(a.heads[o])
	a.removeFree(f)
	// One op for the pop, one per split; charged as one sum.
	a.charge(1 + o - order)
	// Split down to the requested order, freeing the upper buddy at
	// each step.
	for o > order {
		o--
		buddy := f + mem.Frame(uint64(1)<<o)
		a.pushFree(buddy, o)
		a.cSplits.Inc()
	}
	a.setAllocated(f, order)
	a.freeCount -= uint64(1) << order
	a.cAllocs.Inc()
	return f, nil
}

// AllocFrame allocates a single frame (order 0).
func (a *Allocator) AllocFrame() (mem.Frame, error) {
	return a.Alloc(0)
}

// Free returns a previously allocated block to the allocator,
// coalescing with free buddies as far as possible.
func (a *Allocator) Free(f mem.Frame) error {
	e := a.table.Get(f)
	if !e.alloc() {
		return fmt.Errorf("buddy: free of unallocated frame %d", f)
	}
	order := e.order()
	a.clearAllocated(f)
	a.freeCount += uint64(1) << order
	a.cFrees.Inc()

	ops := 1 // the final push; plus one per coalesce, charged as one sum
	for order < MaxOrder {
		buddy := a.buddyOf(f, order)
		if a.table.Get(buddy).state != stateFree|uint8(order) || !a.Contains(buddy, uint64(1)<<order) {
			break
		}
		a.removeFree(buddy)
		ops++
		a.cCoalesces.Inc()
		if buddy < f {
			f = buddy
		}
		order++
	}
	a.pushFree(f, order)
	a.charge(ops)
	return nil
}

func (a *Allocator) buddyOf(f mem.Frame, order int) mem.Frame {
	return f ^ mem.Frame(uint64(1)<<order)
}

// Run is a contiguous frame range returned by AllocRun.
type Run struct {
	Start mem.Frame
	Count uint64
}

// End returns the first frame past the run.
func (r Run) End() mem.Frame { return r.Start + mem.Frame(r.Count) }

// AllocRun allocates exactly count contiguous frames. Internally it
// allocates the covering power-of-two block and returns the tail back
// to the free lists, so the caller receives an exact-size run — the
// extent-allocation primitive the paper relies on ("file systems can
// efficiently allocate large contiguous extents").
func (a *Allocator) AllocRun(count uint64) (Run, error) {
	order, err := OrderFor(count)
	if err != nil {
		return Run{}, err
	}
	f, err := a.Alloc(order)
	if err != nil {
		return Run{}, err
	}
	// Trim the tail: free maximal aligned blocks beyond count.
	total := uint64(1) << order
	if total > count {
		// Temporarily account the block, then carve.
		a.clearAllocated(f)
		a.freeCount += total
		cur := f + mem.Frame(count)
		remaining := total - count
		pushes := 0
		for remaining > 0 {
			o := maxOrderFor(cur, remaining)
			// The trimmed pieces become free blocks directly.
			a.pushFree(cur, o)
			pushes++
			cur += mem.Frame(uint64(1) << o)
			remaining -= uint64(1) << o
		}
		a.charge(pushes)
		a.freeCount -= count
		a.runAllocated(f, count)
	}
	a.cAllocRuns.Inc()
	return Run{Start: f, Count: count}, nil
}

// runAllocated records an exact run as a sequence of maximal aligned
// allocated blocks so FreeRun can return them.
func (a *Allocator) runAllocated(f mem.Frame, count uint64) {
	cur := f
	remaining := count
	for remaining > 0 {
		o := maxOrderFor(cur, remaining)
		a.setAllocated(cur, o)
		cur += mem.Frame(uint64(1) << o)
		remaining -= uint64(1) << o
	}
}

// FreeRun releases a run previously returned by AllocRun. Partial
// frees are allowed: the run may be any sub-range of allocated blocks.
func (a *Allocator) FreeRun(r Run) error {
	return a.FreeRange(r.Start, r.Count)
}

// containingAllocatedBlock finds the allocated block covering frame f.
func (a *Allocator) containingAllocatedBlock(f mem.Frame) (mem.Frame, int, error) {
	for o := 0; o <= MaxOrder; o++ {
		cand := f &^ mem.Frame(uint64(1)<<o-1)
		if e := a.table.Get(cand); e.alloc() {
			if cand+mem.Frame(uint64(1)<<e.order()) > f {
				return cand, e.order(), nil
			}
		}
	}
	return 0, 0, fmt.Errorf("buddy: frame %d not inside any allocated block", f)
}

// FreeRange frees an arbitrary sub-range of allocated frames, splitting
// allocated blocks as needed (the analogue of Linux split_page followed
// by __free_pages). Retained portions of split blocks stay allocated.
func (a *Allocator) FreeRange(start mem.Frame, count uint64) error {
	if count == 0 {
		return fmt.Errorf("buddy: FreeRange of zero frames")
	}
	end := start + mem.Frame(count)
	cur := start
	for cur < end {
		blk, order, err := a.containingAllocatedBlock(cur)
		if err != nil {
			return fmt.Errorf("buddy: FreeRange: %w", err)
		}
		blkEnd := blk + mem.Frame(uint64(1)<<order)
		segEnd := end
		if blkEnd < segEnd {
			segEnd = blkEnd
		}
		// Dissolve the covering block, re-recording the retained head
		// and tail as allocated runs.
		a.clearAllocated(blk)
		a.freeCount += uint64(1) << order
		if blk < cur {
			n := uint64(cur - blk)
			a.runAllocated(blk, n)
			a.freeCount -= n
			a.charge(1)
			a.cSplits.Inc()
		}
		if segEnd < blkEnd {
			n := uint64(blkEnd - segEnd)
			a.runAllocated(segEnd, n)
			a.freeCount -= n
			a.charge(1)
			a.cSplits.Inc()
		}
		// Free the middle segment block by block so buddies coalesce.
		n := uint64(segEnd - cur)
		a.runAllocated(cur, n)
		a.freeCount -= n
		c := cur
		for c < segEnd {
			next := c + mem.Frame(uint64(1)<<a.table.Get(c).order())
			if err := a.Free(c); err != nil {
				return err
			}
			c = next
		}
		cur = segEnd
	}
	return nil
}

// LargestFreeBlock returns the order of the largest free block, or -1
// if no memory is free. It is a fragmentation diagnostic.
func (a *Allocator) LargestFreeBlock() int {
	for o := MaxOrder; o >= 0; o-- {
		if a.heads[o] != none {
			return o
		}
	}
	return -1
}

// FreeBlocksByOrder returns the number of free blocks at each order.
func (a *Allocator) FreeBlocksByOrder() [MaxOrder + 1]int { return a.nFree }

// VisitFree calls fn for every free block (start frame, frame count)
// threaded on the free lists, in order-then-list order. It charges no
// simulated cost; invariant checkers use it to assert free lists are
// disjoint from mapped frames.
func (a *Allocator) VisitFree(fn func(start mem.Frame, count uint64)) {
	for o := 0; o <= MaxOrder; o++ {
		for off := a.heads[o]; off != none; off = a.table.Get(a.frame(off)).next {
			fn(a.frame(off), uint64(1)<<o)
		}
	}
}

// VisitAllocated calls fn for every allocated block (start frame, frame
// count) in ascending frame order. No simulated cost is charged.
func (a *Allocator) VisitAllocated(fn func(start mem.Frame, count uint64)) {
	a.table.Visit(func(f mem.Frame, e entry) bool {
		if e.alloc() {
			fn(f, uint64(1)<<e.order())
		}
		return true
	})
}

// CheckInvariants validates internal consistency: every listed block
// must carry a free entry of its list's order, the per-order and free
// frame counts must match the lists, the block heads must exactly tile
// the managed range, the free heads in the tiling must be exactly the
// listed ones, and no frame that heads no block may carry state (stale
// metadata). It is exercised by tests and failure-injection harnesses
// and charges no simulated time.
//
// The cost is O(B) in the number of blocks B plus the table's levels
// (a directory entry per 4,096 frames and the allocated nodes below
// it): the tiling is proven by a walk from base that must find a block
// head at every position and jumps by that block's size, and the
// stale-metadata property by counting the entries that carry state.
func (a *Allocator) CheckInvariants() error {
	var freeSeen uint64
	listed := 0
	for o := 0; o <= MaxOrder; o++ {
		n := 0
		for off := a.heads[o]; off != none; n++ {
			if uint64(off) >= a.size {
				return fmt.Errorf("buddy: free list %d links to offset %d past the managed range", o, off)
			}
			if n == a.nFree[o] {
				return fmt.Errorf("buddy: free list %d holds more than its %d counted blocks (cycle?)", o, a.nFree[o])
			}
			f := a.frame(off)
			e := a.table.Get(f)
			if e.state != stateFree|uint8(o) {
				return fmt.Errorf("buddy: free block %d on list %d but its entry says %s", f, o, e)
			}
			freeSeen += uint64(1) << o
			off = e.next
		}
		if n != a.nFree[o] {
			return fmt.Errorf("buddy: free list %d holds %d blocks, count says %d", o, n, a.nFree[o])
		}
		listed += n
	}
	if freeSeen != a.freeCount {
		return fmt.Errorf("buddy: free count %d but lists hold %d frames", a.freeCount, freeSeen)
	}

	blocks, free := 0, 0
	end := a.base + mem.Frame(a.size)
	for f := a.base; f < end; blocks++ {
		e := a.table.Get(f)
		if e.state&(stateFree|stateAlloc) == 0 {
			return fmt.Errorf("buddy: frame %d heads no block (gap in the tiling)", f)
		}
		n := uint64(1) << e.order()
		if e.order() > MaxOrder || !a.Contains(f, n) {
			return fmt.Errorf("buddy: %s block at %d leaves managed range", e, f)
		}
		if e.free() {
			free++
		}
		f += mem.Frame(n)
	}
	if free != listed {
		return fmt.Errorf("buddy: %d free blocks tile the range but the lists hold %d (stale metadata)", free, listed)
	}
	if blocks-free != a.nAlloc {
		return fmt.Errorf("buddy: %d allocated blocks tile the range, count says %d", blocks-free, a.nAlloc)
	}

	stateful := 0
	a.table.Visit(func(mem.Frame, entry) bool {
		stateful++
		return true
	})
	if stateful != blocks {
		return a.staleEntry()
	}
	return nil
}

// staleEntry names the first frame whose entry carries state although
// the tiling walk jumped over it. CheckInvariants calls it once it has
// counted more state-bearing entries than blocks.
func (a *Allocator) staleEntry() error {
	var err error
	var head mem.Frame
	var headEntry entry
	next := a.base
	a.table.Visit(func(f mem.Frame, e entry) bool {
		if f == next {
			head, headEntry = f, e
			next = f + mem.Frame(uint64(1)<<e.order())
			return true
		}
		err = fmt.Errorf("buddy: frame %d covered twice: its %s entry lies inside the %s block at %d (stale metadata)",
			f, e, headEntry, head)
		return false
	})
	if err == nil {
		err = fmt.Errorf("buddy: table holds more state-bearing entries than blocks (stale metadata)")
	}
	return err
}
