package buddy

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// refAllocator is the map-based allocator the frame table replaced:
// free lists threaded through a map of list nodes, and the orders of
// free and allocated blocks in two more maps. It survives only as the
// oracle below, so its code is the old code with the counters reduced
// to plain integers.
type refAllocator struct {
	clock  *sim.Clock
	params *sim.Params

	base mem.Frame
	size uint64

	heads     [MaxOrder + 1]mem.Frame
	nodes     map[mem.Frame]refNode
	order     map[mem.Frame]int
	allocated map[mem.Frame]int
	freeCount uint64

	allocs, frees, splits, coalesces, allocRuns uint64
}

type refNode struct {
	prev, next mem.Frame
}

const refNone = mem.Frame(^uint64(0))

func newRef(clock *sim.Clock, params *sim.Params, base mem.Frame, size uint64) *refAllocator {
	a := &refAllocator{
		clock:     clock,
		params:    params,
		base:      base,
		size:      size,
		nodes:     make(map[mem.Frame]refNode),
		order:     make(map[mem.Frame]int),
		allocated: make(map[mem.Frame]int),
	}
	for i := range a.heads {
		a.heads[i] = refNone
	}
	cur := base
	for remaining := size; remaining > 0; {
		o := maxOrderFor(cur, remaining)
		a.pushFree(cur, o)
		cur += mem.Frame(uint64(1) << o)
		remaining -= uint64(1) << o
	}
	a.freeCount = size
	return a
}

func (a *refAllocator) contains(f mem.Frame, n uint64) bool {
	return f >= a.base && uint64(f-a.base) <= a.size && n <= a.size-uint64(f-a.base)
}

func (a *refAllocator) pushFree(f mem.Frame, o int) {
	n := refNode{prev: refNone, next: a.heads[o]}
	if a.heads[o] != refNone {
		h := a.nodes[a.heads[o]]
		h.prev = f
		a.nodes[a.heads[o]] = h
	}
	a.heads[o] = f
	a.nodes[f] = n
	a.order[f] = o
}

func (a *refAllocator) removeFree(f mem.Frame) {
	n := a.nodes[f]
	o := a.order[f]
	if n.prev != refNone {
		p := a.nodes[n.prev]
		p.next = n.next
		a.nodes[n.prev] = p
	} else {
		a.heads[o] = n.next
	}
	if n.next != refNone {
		x := a.nodes[n.next]
		x.prev = n.prev
		a.nodes[n.next] = x
	}
	delete(a.nodes, f)
	delete(a.order, f)
}

func (a *refAllocator) charge(ops int) {
	a.clock.Advance(sim.Time(ops) * a.params.BuddyOp)
}

func (a *refAllocator) Alloc(order int) (mem.Frame, error) {
	if order < 0 || order > MaxOrder {
		return 0, fmt.Errorf("buddy: invalid order %d", order)
	}
	o := order
	for o <= MaxOrder && a.heads[o] == refNone {
		o++
	}
	if o > MaxOrder {
		return 0, fmt.Errorf("buddy: out of memory for order-%d block (%d frames free)", order, a.freeCount)
	}
	f := a.heads[o]
	a.removeFree(f)
	a.charge(1)
	for o > order {
		o--
		a.pushFree(f+mem.Frame(uint64(1)<<o), o)
		a.charge(1)
		a.splits++
	}
	a.allocated[f] = order
	a.freeCount -= uint64(1) << order
	a.allocs++
	return f, nil
}

func (a *refAllocator) Free(f mem.Frame) error {
	order, ok := a.allocated[f]
	if !ok {
		return fmt.Errorf("buddy: free of unallocated frame %d", f)
	}
	delete(a.allocated, f)
	a.freeCount += uint64(1) << order
	a.frees++
	for order < MaxOrder {
		buddy := f ^ mem.Frame(uint64(1)<<order)
		bo, free := a.order[buddy]
		if !free || bo != order || !a.contains(buddy, uint64(1)<<order) {
			break
		}
		a.removeFree(buddy)
		a.charge(1)
		a.coalesces++
		if buddy < f {
			f = buddy
		}
		order++
	}
	a.pushFree(f, order)
	a.charge(1)
	return nil
}

func (a *refAllocator) AllocRun(count uint64) (Run, error) {
	order, err := OrderFor(count)
	if err != nil {
		return Run{}, err
	}
	f, err := a.Alloc(order)
	if err != nil {
		return Run{}, err
	}
	total := uint64(1) << order
	if total > count {
		delete(a.allocated, f)
		a.freeCount += total
		cur := f + mem.Frame(count)
		for remaining := total - count; remaining > 0; {
			o := maxOrderFor(cur, remaining)
			a.pushFree(cur, o)
			a.charge(1)
			cur += mem.Frame(uint64(1) << o)
			remaining -= uint64(1) << o
		}
		a.freeCount -= count
		a.runAllocated(f, count)
	}
	a.allocRuns++
	return Run{Start: f, Count: count}, nil
}

func (a *refAllocator) runAllocated(f mem.Frame, count uint64) {
	cur := f
	for remaining := count; remaining > 0; {
		o := maxOrderFor(cur, remaining)
		a.allocated[cur] = o
		cur += mem.Frame(uint64(1) << o)
		remaining -= uint64(1) << o
	}
}

func (a *refAllocator) containingAllocatedBlock(f mem.Frame) (mem.Frame, int, error) {
	for o := 0; o <= MaxOrder; o++ {
		cand := f &^ mem.Frame(uint64(1)<<o-1)
		if ord, ok := a.allocated[cand]; ok && cand+mem.Frame(uint64(1)<<ord) > f {
			return cand, ord, nil
		}
	}
	return 0, 0, fmt.Errorf("buddy: frame %d not inside any allocated block", f)
}

func (a *refAllocator) FreeRange(start mem.Frame, count uint64) error {
	if count == 0 {
		return fmt.Errorf("buddy: FreeRange of zero frames")
	}
	end := start + mem.Frame(count)
	for cur := start; cur < end; {
		blk, order, err := a.containingAllocatedBlock(cur)
		if err != nil {
			return fmt.Errorf("buddy: FreeRange: %w", err)
		}
		blkEnd := blk + mem.Frame(uint64(1)<<order)
		segEnd := min(end, blkEnd)
		delete(a.allocated, blk)
		a.freeCount += uint64(1) << order
		if blk < cur {
			n := uint64(cur - blk)
			a.runAllocated(blk, n)
			a.freeCount -= n
			a.charge(1)
			a.splits++
		}
		if segEnd < blkEnd {
			n := uint64(blkEnd - segEnd)
			a.runAllocated(segEnd, n)
			a.freeCount -= n
			a.charge(1)
			a.splits++
		}
		n := uint64(segEnd - cur)
		a.runAllocated(cur, n)
		a.freeCount -= n
		for c := cur; c < segEnd; {
			next := c + mem.Frame(uint64(1)<<a.allocated[c])
			if err := a.Free(c); err != nil {
				return err
			}
			c = next
		}
		cur = segEnd
	}
	return nil
}

func (a *refAllocator) FreeBlocksByOrder() [MaxOrder + 1]int {
	var out [MaxOrder + 1]int
	for o := range out {
		for f := a.heads[o]; f != refNone; f = a.nodes[f].next {
			out[o]++
		}
	}
	return out
}

// span is one block as the Visit methods report it.
type span struct {
	start mem.Frame
	count uint64
}

func (a *refAllocator) free() []span {
	var out []span
	for o := 0; o <= MaxOrder; o++ {
		for f := a.heads[o]; f != refNone; f = a.nodes[f].next {
			out = append(out, span{f, uint64(1) << o})
		}
	}
	return out
}

func (a *refAllocator) allocatedSorted() []span {
	var out []span
	for f, o := range a.allocated {
		out = append(out, span{f, uint64(1) << o})
	}
	slices.SortFunc(out, func(x, y span) int { return int(x.start) - int(y.start) })
	return out
}

// compareWithRef reports the first difference between the allocator and
// the oracle.
func compareWithRef(a *Allocator, ref *refAllocator, clock, refClock *sim.Clock) error {
	if a.FreeFrames() != ref.freeCount {
		return fmt.Errorf("FreeFrames %d, oracle %d", a.FreeFrames(), ref.freeCount)
	}
	if got, want := a.FreeBlocksByOrder(), ref.FreeBlocksByOrder(); got != want {
		return fmt.Errorf("FreeBlocksByOrder %v, oracle %v", got, want)
	}
	var free, allocated []span
	a.VisitFree(func(s mem.Frame, n uint64) { free = append(free, span{s, n}) })
	a.VisitAllocated(func(s mem.Frame, n uint64) { allocated = append(allocated, span{s, n}) })
	if want := ref.free(); !slices.Equal(free, want) {
		return fmt.Errorf("VisitFree %v, oracle %v", free, want)
	}
	if want := ref.allocatedSorted(); !slices.Equal(allocated, want) {
		return fmt.Errorf("VisitAllocated %v, oracle %v", allocated, want)
	}
	if clock.Now() != refClock.Now() {
		return fmt.Errorf("clock %d, oracle %d", clock.Now(), refClock.Now())
	}
	s := a.Stats()
	got := [5]uint64{s.Value("allocs"), s.Value("frees"), s.Value("splits"), s.Value("coalesces"), s.Value("alloc_runs")}
	want := [5]uint64{ref.allocs, ref.frees, ref.splits, ref.coalesces, ref.allocRuns}
	if got != want {
		return fmt.Errorf("allocs/frees/splits/coalesces/alloc_runs %v, oracle %v", got, want)
	}
	return nil
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestMatchesMapOracle drives the allocator and the map-based oracle
// through the same seeded random Alloc, AllocFrame, Free, AllocRun,
// FreeRun and FreeRange sequences over unaligned ranges, invalid calls
// included, and requires identical results, errors, free lists,
// allocated sets, counters and simulated time after every call.
func TestMatchesMapOracle(t *testing.T) {
	params := sim.DefaultParams()
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := mem.Frame(rng.Intn(1 << 16))
		size := 1 + uint64(rng.Intn(3000))
		if seed%4 == 0 {
			size = 1 + uint64(rng.Intn(40000))
		}
		clock, refClock := &sim.Clock{}, &sim.Clock{}
		a, err := New(clock, &params, base, size)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRef(refClock, &params, base, size)
		var held []Run // allocated blocks and runs, by their frames
		// randomFrame picks a frame near the range, sometimes outside it.
		randomFrame := func() mem.Frame {
			return base + mem.Frame(rng.Intn(int(size)+8)) - 4
		}
		for step := 0; step < 400; step++ {
			var got, want string
			op := rng.Intn(8)
			switch op {
			case 0, 1:
				order := rng.Intn(7) - 1
				if op == 1 {
					order = 0
				}
				f, err := a.Alloc(order)
				rf, rerr := ref.Alloc(order)
				got, want = fmt.Sprint(f, errString(err)), fmt.Sprint(rf, errString(rerr))
				if err == nil {
					held = append(held, Run{Start: f, Count: uint64(1) << order})
				}
			case 2, 3:
				n := uint64(rng.Intn(70))
				r, err := a.AllocRun(n)
				rr, rerr := ref.AllocRun(n)
				got, want = fmt.Sprint(r, errString(err)), fmt.Sprint(rr, errString(rerr))
				if err == nil {
					held = append(held, r)
				}
			case 4, 5, 6:
				if len(held) == 0 {
					continue
				}
				i := rng.Intn(len(held))
				h := held[i]
				held = append(held[:i], held[i+1:]...)
				var err, rerr error
				switch {
				case op == 4 && h.Count&(h.Count-1) == 0:
					err, rerr = a.Free(h.Start), ref.Free(h.Start)
				case op == 5:
					err, rerr = a.FreeRun(h), ref.FreeRange(h.Start, h.Count)
				default:
					// Free a random sub-range and keep the rest.
					off := uint64(rng.Int63n(int64(h.Count)))
					n := 1 + uint64(rng.Int63n(int64(h.Count-off)))
					err, rerr = a.FreeRange(h.Start+mem.Frame(off), n), ref.FreeRange(h.Start+mem.Frame(off), n)
					if off > 0 {
						held = append(held, Run{Start: h.Start, Count: off})
					}
					if rest := h.Count - off - n; rest > 0 {
						held = append(held, Run{Start: h.Start + mem.Frame(off+n), Count: rest})
					}
				}
				got, want = errString(err), errString(rerr)
			default:
				// Invalid or arbitrary frees: unallocated, out of range,
				// interior frames, zero-length and straddling ranges.
				f := randomFrame()
				n := uint64(rng.Intn(6))
				err, rerr := a.Free(f), ref.Free(f)
				err2, rerr2 := a.FreeRange(f, n), ref.FreeRange(f, n)
				got, want = errString(err)+errString(err2), errString(rerr)+errString(rerr2)
			}
			if got != want {
				t.Fatalf("seed %d step %d op %d: got %s, oracle %s", seed, step, op, got, want)
			}
			if err := compareWithRef(a, ref, clock, refClock); err != nil {
				t.Fatalf("seed %d step %d op %d: %v", seed, step, op, err)
			}
			if err := a.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d op %d: %v", seed, step, op, err)
			}
		}
	}
}
