package buddy

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/sim"
)

func newAlloc(t *testing.T, base mem.Frame, size uint64) (*Allocator, *sim.Clock) {
	t.Helper()
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	a, err := New(clock, &params, base, size)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return a, clock
}

// TestNewRejectsEmptyRange also covers ranges too large for the 32-bit
// free-list offsets: those are errors, not panics.
func TestNewRejectsEmptyRange(t *testing.T) {
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	for _, size := range []uint64{0, mem.MaxTableFrames + 1, 1 << 32, 1 << 40} {
		if _, err := New(clock, &params, 0, size); err == nil {
			t.Fatalf("accepted a range of %d frames", size)
		}
	}
}

func TestInitialStateFullyFree(t *testing.T) {
	a, _ := newAlloc(t, 0, 1024)
	if a.FreeFrames() != 1024 {
		t.Fatalf("FreeFrames = %d, want 1024", a.FreeFrames())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocSingleFrame(t *testing.T) {
	a, _ := newAlloc(t, 0, 1024)
	f, err := a.AllocFrame()
	if err != nil {
		t.Fatalf("AllocFrame: %v", err)
	}
	if uint64(f) >= 1024 {
		t.Fatalf("frame %d outside range", f)
	}
	if a.FreeFrames() != 1023 {
		t.Fatalf("FreeFrames = %d, want 1023", a.FreeFrames())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocAlignment(t *testing.T) {
	a, _ := newAlloc(t, 0, 1024)
	for order := 0; order <= 8; order++ {
		f, err := a.Alloc(order)
		if err != nil {
			t.Fatalf("Alloc(%d): %v", order, err)
		}
		if uint64(f)%(uint64(1)<<order) != 0 {
			t.Fatalf("order-%d block at %d not naturally aligned", order, f)
		}
	}
}

func TestAllocFreeCoalescesFully(t *testing.T) {
	a, _ := newAlloc(t, 0, 1024)
	var frames []mem.Frame
	for i := 0; i < 1024; i++ {
		f, err := a.AllocFrame()
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		frames = append(frames, f)
	}
	if a.FreeFrames() != 0 {
		t.Fatalf("FreeFrames = %d after exhausting", a.FreeFrames())
	}
	if _, err := a.AllocFrame(); err == nil {
		t.Fatal("allocation from exhausted allocator succeeded")
	}
	for _, f := range frames {
		if err := a.Free(f); err != nil {
			t.Fatalf("Free(%d): %v", f, err)
		}
	}
	if a.FreeFrames() != 1024 {
		t.Fatalf("FreeFrames = %d after freeing all", a.FreeFrames())
	}
	if a.LargestFreeBlock() != 10 {
		t.Fatalf("LargestFreeBlock = %d, want 10 (fully coalesced)", a.LargestFreeBlock())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleFreeRejected(t *testing.T) {
	a, _ := newAlloc(t, 0, 64)
	f, _ := a.AllocFrame()
	if err := a.Free(f); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(f); err == nil {
		t.Fatal("double free accepted")
	}
}

func TestFreeUnallocatedRejected(t *testing.T) {
	a, _ := newAlloc(t, 0, 64)
	if err := a.Free(7); err == nil {
		t.Fatal("free of never-allocated frame accepted")
	}
}

func TestInvalidOrders(t *testing.T) {
	a, _ := newAlloc(t, 0, 64)
	if _, err := a.Alloc(-1); err == nil {
		t.Fatal("Alloc(-1) accepted")
	}
	if _, err := a.Alloc(MaxOrder + 1); err == nil {
		t.Fatal("Alloc(too big) accepted")
	}
}

func TestOrderFor(t *testing.T) {
	cases := []struct {
		n    uint64
		want int
	}{{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {512, 9}, {513, 10}}
	for _, c := range cases {
		got, err := OrderFor(c.n)
		if err != nil || got != c.want {
			t.Fatalf("OrderFor(%d) = %d, %v; want %d", c.n, got, err, c.want)
		}
	}
	if _, err := OrderFor(0); err == nil {
		t.Fatal("OrderFor(0) accepted")
	}
	if _, err := OrderFor(1 << 30); err == nil {
		t.Fatal("OrderFor(huge) accepted")
	}
}

func TestNonPowerOfTwoRange(t *testing.T) {
	a, _ := newAlloc(t, 0, 1000)
	if a.FreeFrames() != 1000 {
		t.Fatalf("FreeFrames = %d, want 1000", a.FreeFrames())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var got uint64
	for {
		f, err := a.AllocFrame()
		if err != nil {
			break
		}
		_ = f
		got++
	}
	if got != 1000 {
		t.Fatalf("allocated %d frames from 1000-frame range", got)
	}
}

func TestNonZeroBase(t *testing.T) {
	a, _ := newAlloc(t, 4096, 512)
	f, err := a.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f < 4096 || uint64(f) >= 4096+512 {
		t.Fatalf("frame %d outside [4096, 4608)", f)
	}
	if err := a.Free(f); err != nil {
		t.Fatal(err)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocRunExactSize(t *testing.T) {
	a, _ := newAlloc(t, 0, 1024)
	r, err := a.AllocRun(100)
	if err != nil {
		t.Fatalf("AllocRun: %v", err)
	}
	if r.Count != 100 {
		t.Fatalf("run count = %d, want 100", r.Count)
	}
	if a.FreeFrames() != 924 {
		t.Fatalf("FreeFrames = %d, want 924 (exact-size accounting)", a.FreeFrames())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := a.FreeRun(r); err != nil {
		t.Fatalf("FreeRun: %v", err)
	}
	if a.FreeFrames() != 1024 {
		t.Fatalf("FreeFrames = %d after FreeRun, want 1024", a.FreeFrames())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocRunPowerOfTwo(t *testing.T) {
	a, _ := newAlloc(t, 0, 1024)
	r, err := a.AllocRun(256)
	if err != nil {
		t.Fatal(err)
	}
	if r.Count != 256 || uint64(r.Start)%256 != 0 {
		t.Fatalf("run %+v not aligned pow2 block", r)
	}
	if err := a.FreeRun(r); err != nil {
		t.Fatal(err)
	}
}

func TestRunsDoNotOverlap(t *testing.T) {
	a, _ := newAlloc(t, 0, 2048)
	owner := make(map[mem.Frame]int)
	var runs []Run
	sizes := []uint64{1, 3, 7, 100, 33, 512, 64, 5}
	for i, n := range sizes {
		r, err := a.AllocRun(n)
		if err != nil {
			t.Fatalf("AllocRun(%d): %v", n, err)
		}
		for f := r.Start; f < r.End(); f++ {
			if prev, dup := owner[f]; dup {
				t.Fatalf("frame %d in runs %d and %d", f, prev, i)
			}
			owner[f] = i
		}
		runs = append(runs, r)
	}
	for _, r := range runs {
		if err := a.FreeRun(r); err != nil {
			t.Fatal(err)
		}
	}
	if a.FreeFrames() != 2048 {
		t.Fatalf("leaked frames: free = %d", a.FreeFrames())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocChargesTime(t *testing.T) {
	a, clock := newAlloc(t, 0, 1024)
	before := clock.Now()
	if _, err := a.AllocFrame(); err != nil {
		t.Fatal(err)
	}
	if clock.Since(before) <= 0 {
		t.Fatal("allocation charged no virtual time")
	}
}

func TestFreeBlocksByOrderCounts(t *testing.T) {
	a, _ := newAlloc(t, 0, 1024)
	counts := a.FreeBlocksByOrder()
	if counts[10] != 1 {
		t.Fatalf("expected one order-10 block, got %v", counts)
	}
	_, _ = a.AllocFrame()
	counts = a.FreeBlocksByOrder()
	// One frame allocated: each order 0..9 has exactly one free buddy.
	for o := 0; o <= 9; o++ {
		if counts[o] != 1 {
			t.Fatalf("order %d: %d free blocks, want 1 (%v)", o, counts[o], counts)
		}
	}
}

// TestAllocFreeQuickProperty drives a random alloc/free interleaving and
// checks invariants throughout: no overlap, exact accounting, full
// coalescing at the end.
func TestAllocFreeQuickProperty(t *testing.T) {
	f := func(seed uint64) bool {
		clock := &sim.Clock{}
		params := sim.DefaultParams()
		a, err := New(clock, &params, 0, 4096)
		if err != nil {
			return false
		}
		rng := sim.NewRNG(seed)
		var live []Run
		for step := 0; step < 300; step++ {
			if len(live) == 0 || rng.Float64() < 0.6 {
				n := uint64(1 + rng.Intn(200))
				r, err := a.AllocRun(n)
				if err != nil {
					continue // exhausted; fine
				}
				live = append(live, r)
			} else {
				i := rng.Intn(len(live))
				if err := a.FreeRun(live[i]); err != nil {
					t.Logf("FreeRun: %v", err)
					return false
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		for _, r := range live {
			if err := a.FreeRun(r); err != nil {
				t.Logf("final FreeRun: %v", err)
				return false
			}
		}
		if a.FreeFrames() != 4096 {
			t.Logf("leaked: free=%d", a.FreeFrames())
			return false
		}
		if err := a.CheckInvariants(); err != nil {
			t.Logf("invariants: %v", err)
			return false
		}
		// Full coalescing: the range must collapse back to one block.
		if a.LargestFreeBlock() != 12 {
			t.Logf("largest free block = %d, want 12", a.LargestFreeBlock())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFreeRangePartial(t *testing.T) {
	a, _ := newAlloc(t, 0, 1024)
	r, err := a.AllocRun(512)
	if err != nil {
		t.Fatal(err)
	}
	// Free the middle 100 frames of the run.
	if err := a.FreeRange(r.Start+200, 100); err != nil {
		t.Fatalf("FreeRange: %v", err)
	}
	if a.FreeFrames() != 1024-512+100 {
		t.Fatalf("FreeFrames = %d, want %d", a.FreeFrames(), 1024-512+100)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Free the rest of the run in two pieces.
	if err := a.FreeRange(r.Start, 200); err != nil {
		t.Fatal(err)
	}
	if err := a.FreeRange(r.Start+300, 212); err != nil {
		t.Fatal(err)
	}
	if a.FreeFrames() != 1024 {
		t.Fatalf("FreeFrames = %d, want 1024", a.FreeFrames())
	}
	if a.LargestFreeBlock() != 10 {
		t.Fatalf("not fully coalesced: largest = %d", a.LargestFreeBlock())
	}
}

func TestFreeRangeErrors(t *testing.T) {
	a, _ := newAlloc(t, 0, 64)
	if err := a.FreeRange(0, 0); err == nil {
		t.Fatal("zero-length FreeRange accepted")
	}
	if err := a.FreeRange(5, 3); err == nil {
		t.Fatal("FreeRange of unallocated frames accepted")
	}
	// Double free via FreeRange.
	r, _ := a.AllocRun(8)
	if err := a.FreeRange(r.Start, 8); err != nil {
		t.Fatal(err)
	}
	if err := a.FreeRange(r.Start, 8); err == nil {
		t.Fatal("double FreeRange accepted")
	}
}

func TestFreeRangeQuickProperty(t *testing.T) {
	f := func(seed uint64) bool {
		clock := &sim.Clock{}
		params := sim.DefaultParams()
		a, err := New(clock, &params, 0, 2048)
		if err != nil {
			return false
		}
		rng := sim.NewRNG(seed)
		r, err := a.AllocRun(2000)
		if err != nil {
			return false
		}
		// Free the run in random-order chunks; every frame exactly once.
		type seg struct{ start, count uint64 }
		var segs []seg
		cur := uint64(0)
		for cur < 2000 {
			n := uint64(1 + rng.Intn(97))
			if cur+n > 2000 {
				n = 2000 - cur
			}
			segs = append(segs, seg{cur, n})
			cur += n
		}
		for _, i := range rng.Perm(len(segs)) {
			s := segs[i]
			if err := a.FreeRange(r.Start+mem.Frame(s.start), s.count); err != nil {
				t.Logf("FreeRange(%d,%d): %v", s.start, s.count, err)
				return false
			}
		}
		if a.FreeFrames() != 2048 {
			t.Logf("free = %d", a.FreeFrames())
			return false
		}
		return a.CheckInvariants() == nil && a.LargestFreeBlock() == 11
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
