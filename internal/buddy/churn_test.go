package buddy

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// churnPool returns a 2 GiB pool (2^19 frames) in which every other
// frame of the first 8,192 is allocated, and those 4,096 frames: each
// held frame's buddy is free, so freeing it coalesces.
func churnPool(tb testing.TB) (*Allocator, []mem.Frame) {
	tb.Helper()
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	a, err := New(clock, &params, 0, 1<<19)
	if err != nil {
		tb.Fatal(err)
	}
	var held, spare []mem.Frame
	for i := 0; i < 8192; i++ {
		f, err := a.AllocFrame()
		if err != nil {
			tb.Fatal(err)
		}
		if i%2 == 0 {
			held = append(held, f)
		} else {
			spare = append(spare, f)
		}
	}
	for _, f := range spare {
		if err := a.Free(f); err != nil {
			tb.Fatal(err)
		}
	}
	return a, held
}

// churn frees and reallocates every held frame once, in a scattered
// order.
func churn(tb testing.TB, a *Allocator, frames []mem.Frame) {
	for i := range frames {
		j := (i * 37) % len(frames)
		if err := a.Free(frames[j]); err != nil {
			tb.Fatal(err)
		}
		f, err := a.AllocFrame()
		if err != nil {
			tb.Fatal(err)
		}
		frames[j] = f
	}
}

// TestSteadyStateAllocFreeAllocatesNothing pins the order-0 alloc/free
// path at zero host allocations once the table levels the churn
// touches exist.
func TestSteadyStateAllocFreeAllocatesNothing(t *testing.T) {
	a, frames := churnPool(t)
	churn(t, a, frames)
	if allocs := testing.AllocsPerRun(20, func() { churn(t, a, frames) }); allocs != 0 {
		t.Fatalf("alloc/free churn: %v allocations per run, want 0", allocs)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAllocFreeFrame is order-0 churn on a 2 GiB pool: each op
// frees one of 4,096 held frames, which coalesces with its free buddy,
// and allocates one.
func BenchmarkAllocFreeFrame(b *testing.B) {
	a, frames := churnPool(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := (i * 37) % len(frames)
		if err := a.Free(frames[j]); err != nil {
			b.Fatal(err)
		}
		f, err := a.AllocFrame()
		if err != nil {
			b.Fatal(err)
		}
		frames[j] = f
	}
}
