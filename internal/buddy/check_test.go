package buddy

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// checkPerFrame is the frame-by-frame form of CheckInvariants: it marks
// every frame of every listed and every allocated block in a map. It is
// kept only as a test oracle for the tiling walk, which must reject
// every state this one rejects.
func checkPerFrame(a *Allocator) error {
	covered := make(map[mem.Frame]bool, a.size)
	mark := func(f mem.Frame, o int, what string) error {
		for i := uint64(0); i < uint64(1)<<o; i++ {
			fr := f + mem.Frame(i)
			if !a.Contains(fr, 1) {
				return fmt.Errorf("buddy: %s block [%d, order %d] leaves managed range", what, f, o)
			}
			if covered[fr] {
				return fmt.Errorf("buddy: frame %d covered twice (%s block at %d order %d)", fr, what, f, o)
			}
			covered[fr] = true
		}
		return nil
	}
	var freeSeen uint64
	for o := 0; o <= MaxOrder; o++ {
		for off := a.heads[o]; off != none; off = a.table.Get(a.frame(off)).next {
			f := a.frame(off)
			if got := a.table.Get(f); got.state != stateFree|uint8(o) {
				return fmt.Errorf("buddy: free block %d on list %d but its entry says %s", f, o, got)
			}
			if err := mark(f, o, "free"); err != nil {
				return err
			}
			freeSeen += uint64(1) << o
		}
	}
	if freeSeen != a.freeCount {
		return fmt.Errorf("buddy: free count %d but lists hold %d frames", a.freeCount, freeSeen)
	}
	var err error
	a.VisitAllocated(func(f mem.Frame, n uint64) {
		if err == nil {
			o, _ := OrderFor(n)
			err = mark(f, o, "allocated")
		}
	})
	if err != nil {
		return err
	}
	if uint64(len(covered)) != a.size {
		return fmt.Errorf("buddy: %d frames accounted, managed %d", len(covered), a.size)
	}
	return nil
}

// freeBlocks lists the free blocks in free-list order.
func freeBlocks(a *Allocator) []block {
	var out []block
	a.VisitFree(func(start mem.Frame, count uint64) {
		o, _ := OrderFor(count)
		out = append(out, block{start: start, order: o})
	})
	return out
}

// allocatedBlocks lists the allocated blocks in ascending frame order.
func allocatedBlocks(a *Allocator) []block {
	var out []block
	a.VisitAllocated(func(start mem.Frame, count uint64) {
		o, _ := OrderFor(count)
		out = append(out, block{start: start, order: o})
	})
	return out
}

// block is one free or allocated block.
type block struct {
	start mem.Frame
	order int
}

// firstAllocated returns the lowest allocated block of at least the
// given order.
func firstAllocated(a *Allocator, minOrder int) (block, bool) {
	for _, b := range allocatedBlocks(a) {
		if b.order >= minOrder {
			return b, true
		}
	}
	return block{}, false
}

// corruption damages an allocator's bookkeeping in one way. apply
// reports false when the state offers nothing to corrupt that way.
// perFrame says whether the per-frame oracle rejects the damage too;
// the stale-metadata corruptions are caught by the tiling walk alone.
type corruption struct {
	name     string
	want     string // substring of the tiling walk's error
	perFrame bool
	apply    func(a *Allocator) bool
}

var corruptions = []corruption{
	{"wrong order list", "its entry says", true, func(a *Allocator) bool {
		for _, b := range freeBlocks(a) {
			if b.order < MaxOrder {
				a.removeFree(b.start)
				a.pushFree(b.start, b.order+1)
				a.table.Ptr(b.start).state = stateFree | uint8(b.order)
				return true
			}
		}
		return false
	}},
	{"free block also allocated", "covered twice", true, func(a *Allocator) bool {
		for _, b := range freeBlocks(a) {
			if b.order > 0 {
				a.table.Set(b.start+mem.Frame(uint64(1)<<b.order)-1, entry{state: stateAlloc})
				return true
			}
		}
		return false
	}},
	{"allocated blocks overlap", "covered twice", true, func(a *Allocator) bool {
		b, ok := firstAllocated(a, 1)
		if ok {
			a.table.Set(b.start+1, entry{state: stateAlloc})
		}
		return ok
	}},
	{"gap", "gap", true, func(a *Allocator) bool {
		b, ok := firstAllocated(a, 0)
		if ok {
			a.table.Set(b.start, entry{})
		}
		return ok
	}},
	{"block overruns the range", "leaves managed range", true, func(a *Allocator) bool {
		last := a.base
		for f := a.base; f < a.base+mem.Frame(a.size); f += mem.Frame(uint64(1) << a.table.Get(f).order()) {
			last = f
		}
		e := a.table.Get(last)
		if e.order() == MaxOrder {
			return false
		}
		if e.free() {
			// Re-list it one order up, and count the frames the list
			// now claims, so only the tiling walk sees the damage.
			a.removeFree(last)
			a.pushFree(last, e.order()+1)
			a.freeCount += uint64(1) << e.order()
		} else {
			a.table.Ptr(last).state++
		}
		return true
	}},
	{"free count", "free count", true, func(a *Allocator) bool {
		a.freeCount++
		return true
	}},
	{"free-list cycle", "cycle", true, func(a *Allocator) bool {
		fb := freeBlocks(a)
		if len(fb) == 0 {
			return false
		}
		a.table.Ptr(fb[0].start).next = uint32(fb[0].start - a.base)
		return true
	}},
	{"free-list link past the range", "past the managed range", true, func(a *Allocator) bool {
		fb := freeBlocks(a)
		if len(fb) == 0 {
			return false
		}
		a.table.Ptr(fb[0].start).next = uint32(a.size)
		return true
	}},
	{"stale list node", "stale metadata", true, func(a *Allocator) bool {
		b, ok := firstAllocated(a, 0)
		if ok {
			a.table.Set(b.start, entry{prev: none, next: none, state: stateFree | uint8(b.order)})
		}
		return ok
	}},
	{"stale order entry", "stale metadata", false, func(a *Allocator) bool {
		b, ok := firstAllocated(a, 1)
		if ok {
			a.table.Set(b.start+1, entry{state: stateFree})
		}
		return ok
	}},
	{"stale links inside a block", "stale metadata", false, func(a *Allocator) bool {
		b, ok := firstAllocated(a, 1)
		if ok {
			a.table.Set(b.start+1, entry{prev: none, next: none})
		}
		return ok
	}},
}

// fragmented returns an allocator over [base, base+size) holding a
// seeded mix of allocated runs and frames with holes freed between
// them.
func fragmented(t testing.TB, base mem.Frame, size uint64, seed int64) *Allocator {
	t.Helper()
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	a, err := New(clock, &params, base, size)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var runs []Run
	for a.FreeFrames() > size/2 {
		r, err := a.AllocRun(1 + uint64(rng.Intn(48)))
		if err != nil {
			break
		}
		runs = append(runs, r)
	}
	for i := 0; i < len(runs); i += 2 {
		if err := a.FreeRun(runs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

func TestCheckInvariantsRejectsCorruption(t *testing.T) {
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			a := fragmented(t, 4096, 3000, 1)
			if err := a.CheckInvariants(); err != nil {
				t.Fatalf("before corruption: %v", err)
			}
			if !c.apply(a) {
				t.Fatal("corruption not applicable")
			}
			err := a.CheckInvariants()
			if err == nil {
				t.Fatal("CheckInvariants accepted the corrupted state")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
			if c.perFrame && checkPerFrame(a) == nil {
				t.Fatal("per-frame oracle accepted the corrupted state")
			}
		})
	}
}

// TestTableRejectsBlocksOutsideRange covers the corruptions the frame
// table cannot express: it has no slot for a block before or past the
// managed range, so such a write must be refused and leave the
// allocator intact.
func TestTableRejectsBlocksOutsideRange(t *testing.T) {
	for _, c := range []struct {
		name string
		at   func(a *Allocator) mem.Frame
	}{
		{"block past the range", func(a *Allocator) mem.Frame { return a.base + mem.Frame(a.size) }},
		{"block before the range", func(a *Allocator) mem.Frame { return a.base - 1 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			a := fragmented(t, 4096, 3000, 1)
			f := c.at(a)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("block at frame %d outside [%d, %d) accepted", f, a.base, a.base+mem.Frame(a.size))
					}
				}()
				a.table.Set(f, entry{state: stateAlloc})
			}()
			if err := a.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCheckInvariantsMatchesPerFrameOracle drives random Alloc, Free,
// AllocRun and FreeRange sequences and compares the tiling check with
// the per-frame oracle after every step; each sequence then injects one
// corruption, which both must reject (the stale-metadata ones only the
// tiling check sees).
func TestCheckInvariantsMatchesPerFrameOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := mem.Frame(rng.Intn(4) * 512)
		a, _ := newAlloc(t, base, 256+uint64(rng.Intn(1024)))
		type held struct {
			start mem.Frame
			count uint64
			block bool // from Alloc, freed with Free
		}
		var live []held
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(4); {
			case op == 0:
				if f, err := a.Alloc(rng.Intn(5)); err == nil {
					live = append(live, held{start: f, block: true})
				}
			case op == 1:
				if r, err := a.AllocRun(1 + uint64(rng.Intn(40))); err == nil {
					live = append(live, held{start: r.Start, count: r.Count})
				}
			case len(live) > 0:
				i := rng.Intn(len(live))
				h := live[i]
				live = append(live[:i], live[i+1:]...)
				if h.block {
					if err := a.Free(h.start); err != nil {
						t.Fatalf("seed %d: Free: %v", seed, err)
					}
					break
				}
				// Free a random sub-range and keep the rest.
				off := uint64(rng.Int63n(int64(h.count)))
				n := 1 + uint64(rng.Int63n(int64(h.count-off)))
				if err := a.FreeRange(h.start+mem.Frame(off), n); err != nil {
					t.Fatalf("seed %d: FreeRange: %v", seed, err)
				}
				if off > 0 {
					live = append(live, held{start: h.start, count: off})
				}
				if rest := h.count - off - n; rest > 0 {
					live = append(live, held{start: h.start + mem.Frame(off+n), count: rest})
				}
			}
			got, want := a.CheckInvariants(), checkPerFrame(a)
			if (got == nil) != (want == nil) {
				t.Fatalf("seed %d step %d: tiling check %v, per-frame oracle %v", seed, step, got, want)
			}
			if got != nil {
				t.Fatalf("seed %d step %d: clean state rejected: %v", seed, step, got)
			}
		}
		c := corruptions[rng.Intn(len(corruptions))]
		if !c.apply(a) {
			continue
		}
		if err := a.CheckInvariants(); err == nil {
			t.Fatalf("seed %d: tiling check accepted corruption %q", seed, c.name)
		}
		if c.perFrame && checkPerFrame(a) == nil {
			t.Fatalf("seed %d: per-frame oracle accepted corruption %q", seed, c.name)
		}
	}
}

// TestCheckInvariantsAllocsIndependentOfSize pins the check's host
// allocation count: the same fragmentation pattern over pools from
// 16 MiB to 2 GiB must cost the same number of allocations.
func TestCheckInvariantsAllocsIndependentOfSize(t *testing.T) {
	var first float64
	for i, size := range []uint64{1 << 12, 1 << 16, 1 << 19} {
		clock := &sim.Clock{}
		params := sim.DefaultParams()
		a, err := New(clock, &params, 0, size)
		if err != nil {
			t.Fatal(err)
		}
		var frames []mem.Frame
		for j := 0; j < 256; j++ {
			f, err := a.AllocFrame()
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, f)
		}
		for j := 0; j < len(frames); j += 2 {
			if err := a.Free(frames[j]); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := a.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
		if i == 0 {
			first = allocs
		}
		if allocs != first || allocs > 1 {
			t.Fatalf("%d frames: %v allocations per check, want %v (at most 1)", size, allocs, first)
		}
	}
}

// BenchmarkCheckInvariants audits a fragmented 2 GiB pool (2^19
// frames). The per-frame-oracle case is the frame-walking check the
// tiling one replaced, kept for before/after numbers.
func BenchmarkCheckInvariants(b *testing.B) {
	a := fragmented(b, 0, 1<<19, 1)
	for _, bc := range []struct {
		name  string
		check func(*Allocator) error
	}{
		{"tiling", (*Allocator).CheckInvariants},
		{"per-frame-oracle", checkPerFrame},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.check(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
