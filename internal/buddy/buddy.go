// Package buddy implements a binary buddy allocator over physical
// frames, in the style of the Linux page allocator. It is the
// simulator's primary physical-memory allocator: the baseline VM
// allocates single frames from it on every anonymous fault, the file
// systems allocate block runs from it, and file-only memory allocates
// whole extents from it.
//
// Every free-list operation (pop, push, split, coalesce) charges one
// BuddyOp of virtual time, so allocation cost scales with the number of
// list manipulations exactly as in a real kernel.
package buddy

import (
	"cmp"
	"fmt"
	"slices"

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

	// heads[o] is the first free block of order o, or noFrame.
	// Free blocks form doubly linked lists threaded through nodes.
	heads [MaxOrder + 1]mem.Frame
	nodes map[mem.Frame]listNode // membership: free blocks only
	order map[mem.Frame]int      // order of free blocks (for buddy checks)

	allocated map[mem.Frame]int // order of allocated blocks
	freeCount uint64

	stats *metrics.Set
	// Cached counters for the per-block hot paths.
	cAllocs, cFrees, cSplits, cCoalesces *metrics.Counter
}

type listNode struct {
	prev, next mem.Frame
}

// noFrame marks list ends; it is an impossible frame number.
const noFrame = mem.Frame(^uint64(0))

// New creates an allocator over [base, base+size). All frames start
// free.
func New(clock *sim.Clock, params *sim.Params, base mem.Frame, size uint64) (*Allocator, error) {
	if size == 0 {
		return nil, fmt.Errorf("buddy: empty range")
	}
	a := &Allocator{
		clock:     clock,
		params:    params,
		base:      base,
		size:      size,
		nodes:     make(map[mem.Frame]listNode),
		order:     make(map[mem.Frame]int),
		allocated: make(map[mem.Frame]int),
		stats:     metrics.NewSet(),
	}
	a.cAllocs = a.stats.Counter("allocs")
	a.cFrees = a.stats.Counter("frees")
	a.cSplits = a.stats.Counter("splits")
	a.cCoalesces = a.stats.Counter("coalesces")
	for i := range a.heads {
		a.heads[i] = noFrame
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

// list helpers; each push/pop/remove charges one BuddyOp.

func (a *Allocator) pushFree(f mem.Frame, o int) {
	n := listNode{prev: noFrame, next: a.heads[o]}
	if a.heads[o] != noFrame {
		h := a.nodes[a.heads[o]]
		h.prev = f
		a.nodes[a.heads[o]] = h
	}
	a.heads[o] = f
	a.nodes[f] = n
	a.order[f] = o
}

func (a *Allocator) removeFree(f mem.Frame) {
	n := a.nodes[f]
	o := a.order[f]
	if n.prev != noFrame {
		p := a.nodes[n.prev]
		p.next = n.next
		a.nodes[n.prev] = p
	} else {
		a.heads[o] = n.next
	}
	if n.next != noFrame {
		x := a.nodes[n.next]
		x.prev = n.prev
		a.nodes[n.next] = x
	}
	delete(a.nodes, f)
	delete(a.order, f)
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
	for o <= MaxOrder && a.heads[o] == noFrame {
		o++
	}
	if o > MaxOrder {
		return 0, fmt.Errorf("buddy: out of memory for order-%d block (%d frames free)", order, a.freeCount)
	}
	f := a.heads[o]
	a.removeFree(f)
	a.charge(1)
	// Split down to the requested order, freeing the upper buddy at
	// each step.
	for o > order {
		o--
		buddy := f + mem.Frame(uint64(1)<<o)
		a.pushFree(buddy, o)
		a.charge(1)
		a.cSplits.Inc()
	}
	a.allocated[f] = order
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
	order, ok := a.allocated[f]
	if !ok {
		return fmt.Errorf("buddy: free of unallocated frame %d", f)
	}
	delete(a.allocated, f)
	a.freeCount += uint64(1) << order
	a.cFrees.Inc()

	for order < MaxOrder {
		buddy := a.buddyOf(f, order)
		bo, free := a.order[buddy]
		if !free || bo != order || !a.Contains(buddy, uint64(1)<<order) {
			break
		}
		a.removeFree(buddy)
		a.charge(1)
		a.cCoalesces.Inc()
		if buddy < f {
			f = buddy
		}
		order++
	}
	a.pushFree(f, order)
	a.charge(1)
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
		delete(a.allocated, f)
		a.freeCount += total
		cur := f + mem.Frame(count)
		remaining := total - count
		for remaining > 0 {
			o := maxOrderFor(cur, remaining)
			// The trimmed pieces become free blocks directly.
			a.pushFree(cur, o)
			a.charge(1)
			cur += mem.Frame(uint64(1) << o)
			remaining -= uint64(1) << o
		}
		a.freeCount -= count
		a.runAllocated(f, count)
	}
	a.stats.Counter("alloc_runs").Inc()
	return Run{Start: f, Count: count}, nil
}

// runAllocated records an exact run as a sequence of maximal aligned
// allocated blocks so FreeRun can return them.
func (a *Allocator) runAllocated(f mem.Frame, count uint64) {
	cur := f
	remaining := count
	for remaining > 0 {
		o := maxOrderFor(cur, remaining)
		a.allocated[cur] = o
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
		if ord, ok := a.allocated[cand]; ok {
			if cand+mem.Frame(uint64(1)<<ord) > f {
				return cand, ord, nil
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
		delete(a.allocated, blk)
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
			o := a.allocated[c]
			next := c + mem.Frame(uint64(1)<<o)
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
		if a.heads[o] != noFrame {
			return o
		}
	}
	return -1
}

// FreeBlocksByOrder returns the number of free blocks at each order.
func (a *Allocator) FreeBlocksByOrder() [MaxOrder + 1]int {
	var out [MaxOrder + 1]int
	for o := 0; o <= MaxOrder; o++ {
		for f := a.heads[o]; f != noFrame; f = a.nodes[f].next {
			out[o]++
		}
	}
	return out
}

// VisitFree calls fn for every free block (start frame, frame count)
// threaded on the free lists, in order-then-list order. It charges no
// simulated cost; invariant checkers use it to assert free lists are
// disjoint from mapped frames.
func (a *Allocator) VisitFree(fn func(start mem.Frame, count uint64)) {
	for o := 0; o <= MaxOrder; o++ {
		for f := a.heads[o]; f != noFrame; f = a.nodes[f].next {
			fn(f, uint64(1)<<o)
		}
	}
}

// VisitAllocated calls fn for every allocated block (start frame, frame
// count). Iteration order is unspecified (map order); callers that need
// determinism must collect and sort. No simulated cost is charged.
func (a *Allocator) VisitAllocated(fn func(start mem.Frame, count uint64)) {
	for f, o := range a.allocated {
		fn(f, uint64(1)<<o)
	}
}

// block is one free or allocated block, as CheckInvariants sees it.
type block struct {
	start mem.Frame
	order int
	free  bool
}

func (b block) what() string {
	if b.free {
		return "free"
	}
	return "allocated"
}

// CheckInvariants validates internal consistency: free and allocated
// accounting must exactly tile the managed range with no overlap, every
// listed block must carry its list's order, the list metadata must hold
// no entry for a block that is not listed, and freeCount must equal the
// listed frames. It is exercised by tests and failure-injection
// harnesses and charges no simulated time.
//
// The cost is O(B log B) in the number of blocks B, independent of the
// managed size: the blocks are sorted by start frame, and a range is
// tiled exactly when every block lies inside it, no block overlaps its
// predecessor, and the block sizes sum to the range size.
func (a *Allocator) CheckInvariants() error {
	blocks := make([]block, 0, len(a.nodes)+len(a.allocated))
	var freeSeen uint64
	for o := 0; o <= MaxOrder; o++ {
		for f := a.heads[o]; f != noFrame; f = a.nodes[f].next {
			if _, ok := a.nodes[f]; !ok {
				return fmt.Errorf("buddy: free block %d on list %d has no list node", f, o)
			}
			if len(blocks) == len(a.nodes) {
				return fmt.Errorf("buddy: free lists hold more blocks than their %d list nodes (cycle?)", len(a.nodes))
			}
			if got := a.order[f]; got != o {
				return fmt.Errorf("buddy: free block %d on list %d but order map says %d", f, o, got)
			}
			blocks = append(blocks, block{start: f, order: o, free: true})
			freeSeen += uint64(1) << o
		}
	}
	if freeSeen != a.freeCount {
		return fmt.Errorf("buddy: free count %d but lists hold %d frames", a.freeCount, freeSeen)
	}
	if len(a.nodes) != len(blocks) || len(a.order) != len(blocks) {
		return fmt.Errorf("buddy: %d list nodes and %d order entries for %d listed free blocks (stale metadata)",
			len(a.nodes), len(a.order), len(blocks))
	}
	for f, o := range a.allocated {
		if o < 0 || o > MaxOrder {
			return fmt.Errorf("buddy: allocated block %d has invalid order %d", f, o)
		}
		blocks = append(blocks, block{start: f, order: o})
	}
	slices.SortFunc(blocks, func(x, y block) int { return cmp.Compare(x.start, y.start) })
	var covered uint64
	prevEnd := a.base
	for i, b := range blocks {
		n := uint64(1) << b.order
		if !a.Contains(b.start, n) {
			return fmt.Errorf("buddy: %s block [%d, order %d] leaves managed range", b.what(), b.start, b.order)
		}
		if i > 0 && b.start < prevEnd {
			return fmt.Errorf("buddy: frame %d covered twice (%s block at %d order %d)", b.start, b.what(), b.start, b.order)
		}
		prevEnd = b.start + mem.Frame(n)
		covered += n
	}
	if covered != a.size {
		return fmt.Errorf("buddy: %d frames accounted, managed %d", covered, a.size)
	}
	return nil
}
