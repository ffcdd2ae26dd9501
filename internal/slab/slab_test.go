package slab

import (
	"testing"
	"testing/quick"

	"repro/internal/buddy"
	"repro/internal/mem"
	"repro/internal/sim"
)

func newCache(t *testing.T, objSize uint64) (*Cache, *buddy.Allocator, *sim.Clock) {
	t.Helper()
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	bud, err := buddy.New(clock, &params, 0, 4096)
	if err != nil {
		t.Fatalf("buddy.New: %v", err)
	}
	c, err := NewCache("test", objSize, clock, &params, bud)
	if err != nil {
		t.Fatalf("NewCache: %v", err)
	}
	return c, bud, clock
}

func TestNewCacheRejectsBadSizes(t *testing.T) {
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	bud, _ := buddy.New(clock, &params, 0, 64)
	if _, err := NewCache("tiny", 4, clock, &params, bud); err == nil {
		t.Fatal("accepted 4-byte objects")
	}
	if _, err := NewCache("huge", 1<<20, clock, &params, bud); err == nil {
		t.Fatal("accepted 1MiB objects")
	}
}

func TestAllocFreeRoundTrip(t *testing.T) {
	c, bud, _ := newCache(t, 64)
	a, err := c.Alloc()
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if inUse(c) != 1 {
		t.Fatalf("InUse = %d, want 1", inUse(c))
	}
	if err := c.Free(a); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if inUse(c) != 0 || slabs(c) != 0 {
		t.Fatalf("InUse=%d Slabs=%d after free, want 0/0", inUse(c), slabs(c))
	}
	if bud.FreeFrames() != 4096 {
		t.Fatalf("empty slab not returned to buddy: free=%d", bud.FreeFrames())
	}
}

func TestObjectsDistinct(t *testing.T) {
	c, _, _ := newCache(t, 128)
	seen := make(map[mem.PhysAddr]bool)
	for i := 0; i < 500; i++ {
		a, err := c.Alloc()
		if err != nil {
			t.Fatalf("Alloc %d: %v", i, err)
		}
		if seen[a] {
			t.Fatalf("address %#x returned twice", uint64(a))
		}
		seen[a] = true
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleFreeRejected(t *testing.T) {
	c, _, _ := newCache(t, 64)
	a, _ := c.Alloc()
	b, _ := c.Alloc() // keep the slab alive after first free
	_ = b
	if err := c.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := c.Free(a); err == nil {
		t.Fatal("double free accepted")
	}
}

func TestForeignAddressRejected(t *testing.T) {
	c, _, _ := newCache(t, 64)
	if err := c.Free(mem.PhysAddr(0xFFFF0000)); err == nil {
		t.Fatal("foreign address accepted")
	}
}

func TestMisalignedAddressRejected(t *testing.T) {
	c, _, _ := newCache(t, 64)
	a, _ := c.Alloc()
	if err := c.Free(a + 1); err == nil {
		t.Fatal("misaligned address accepted")
	}
	if err := c.Free(a); err != nil {
		t.Fatal(err)
	}
}

func TestSlabGrowthAndShrink(t *testing.T) {
	c, bud, _ := newCache(t, 512)
	per := c.perSlab
	var addrs []mem.PhysAddr
	for i := 0; i < per*3; i++ {
		a, err := c.Alloc()
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		addrs = append(addrs, a)
	}
	if slabs(c) != 3 {
		t.Fatalf("Slabs = %d, want 3", slabs(c))
	}
	for _, a := range addrs {
		if err := c.Free(a); err != nil {
			t.Fatal(err)
		}
	}
	if slabs(c) != 0 {
		t.Fatalf("slabs not reclaimed: %d slabs", slabs(c))
	}
	if bud.FreeFrames() != 4096 {
		t.Fatalf("frames leaked: %d free", bud.FreeFrames())
	}
}

func TestAllocChargesTime(t *testing.T) {
	c, _, clock := newCache(t, 64)
	before := clock.Now()
	if _, err := c.Alloc(); err != nil {
		t.Fatal(err)
	}
	if clock.Since(before) <= 0 {
		t.Fatal("Alloc charged no time")
	}
}

func TestExhaustionReturnsError(t *testing.T) {
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	bud, _ := buddy.New(clock, &params, 0, 2) // 2 frames only
	c, err := NewCache("small", 1024, clock, &params, bud)
	if err != nil {
		t.Fatal(err)
	}
	// Slab needs 2 frames (8 objects * 1KiB); one slab fits, then OOM.
	for i := 0; i < c.perSlab; i++ {
		if _, err := c.Alloc(); err != nil {
			t.Fatalf("Alloc %d: %v", i, err)
		}
	}
	if _, err := c.Alloc(); err == nil {
		t.Fatal("allocation beyond memory succeeded")
	}
}

func TestQuickRandomAllocFree(t *testing.T) {
	f := func(seed uint64) bool {
		clock := &sim.Clock{}
		params := sim.DefaultParams()
		bud, err := buddy.New(clock, &params, 0, 2048)
		if err != nil {
			return false
		}
		c, err := NewCache("q", 96, clock, &params, bud)
		if err != nil {
			return false
		}
		rng := sim.NewRNG(seed)
		var live []mem.PhysAddr
		for i := 0; i < 500; i++ {
			if len(live) == 0 || rng.Float64() < 0.55 {
				a, err := c.Alloc()
				if err != nil {
					return false
				}
				live = append(live, a)
			} else {
				j := rng.Intn(len(live))
				if err := c.Free(live[j]); err != nil {
					t.Logf("Free: %v", err)
					return false
				}
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if i%100 == 0 {
				if err := c.CheckInvariants(); err != nil {
					t.Logf("invariants: %v", err)
					return false
				}
			}
		}
		for _, a := range live {
			if err := c.Free(a); err != nil {
				return false
			}
		}
		return inUse(c) == 0 && bud.FreeFrames() == 2048
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// inUse counts the objects currently allocated from c.
func inUse(c *Cache) int {
	n := 0
	for _, list := range [][]*slabT{c.partial, c.full} {
		for _, s := range list {
			n += s.inUse
		}
	}
	return n
}

// slabs returns the number of live slabs.
func slabs(c *Cache) int { return len(c.partial) + len(c.full) }
