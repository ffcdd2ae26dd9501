package rangetable

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/sim"
)

func newTable(t *testing.T) (*Table, *sim.Clock, sim.Params) {
	t.Helper()
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	return New(clock, &params), clock, params
}

func TestEntryHelpers(t *testing.T) {
	e := Entry{VBase: 0x10000, Pages: 4, PBase: 100}
	if e.VEnd() != 0x14000 {
		t.Fatalf("VEnd = %#x", uint64(e.VEnd()))
	}
	if !e.Contains(0x10000) || !e.Contains(0x13FFF) || e.Contains(0x14000) || e.Contains(0xFFFF) {
		t.Fatal("Contains wrong")
	}
	if got := e.Translate(0x11234); got != mem.Frame(100).Addr()+0x1234 {
		t.Fatalf("Translate = %#x", uint64(got))
	}
}

func TestInsertLookupRemove(t *testing.T) {
	tbl, _, _ := newTable(t)
	e := Entry{VBase: 0x100000, Pages: 1000, PBase: 5000, Flags: pagetable.FlagRead}
	if err := tbl.Insert(e); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	got, ok := tbl.Lookup(0x100000 + 999*mem.FrameSize)
	if !ok || got.PBase != 5000 {
		t.Fatalf("Lookup: %+v ok=%v", got, ok)
	}
	if _, ok := tbl.Lookup(0x100000 + 1000*mem.FrameSize); ok {
		t.Fatal("Lookup past range hit")
	}
	removed, err := tbl.Remove(0x100000)
	if err != nil || removed.Pages != 1000 {
		t.Fatalf("Remove: %+v, %v", removed, err)
	}
	if len(tbl.Entries()) != 0 {
		t.Fatalf("Len = %d after remove", len(tbl.Entries()))
	}
}

func TestInsertRejectsOverlap(t *testing.T) {
	tbl, _, _ := newTable(t)
	if err := tbl.Insert(Entry{VBase: 0x10000, Pages: 10, PBase: 0}); err != nil {
		t.Fatal(err)
	}
	cases := []Entry{
		{VBase: 0x10000, Pages: 1, PBase: 100}, // same base
		{VBase: 0x12000, Pages: 1, PBase: 100}, // inside
		{VBase: 0x8000, Pages: 9, PBase: 100},  // tail overlaps head
		{VBase: 0x19000, Pages: 5, PBase: 100}, // head overlaps tail
	}
	for _, e := range cases {
		if err := tbl.Insert(e); err == nil {
			t.Fatalf("overlap %+v accepted", e)
		}
	}
	// Adjacent ranges are fine.
	if err := tbl.Insert(Entry{VBase: 0x1A000, Pages: 3, PBase: 200}); err != nil {
		t.Fatalf("adjacent insert rejected: %v", err)
	}
	if err := tbl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertValidation(t *testing.T) {
	tbl, _, _ := newTable(t)
	if err := tbl.Insert(Entry{VBase: 0x1000, Pages: 0}); err == nil {
		t.Fatal("empty range accepted")
	}
	if err := tbl.Insert(Entry{VBase: 0x1001, Pages: 1}); err == nil {
		t.Fatal("unaligned base accepted")
	}
}

func TestRemoveMissing(t *testing.T) {
	tbl, _, _ := newTable(t)
	if _, err := tbl.Remove(0x5000); err != nil {
		// expected
	} else {
		t.Fatal("Remove of missing range succeeded")
	}
}

func TestInsertCostIndependentOfSize(t *testing.T) {
	tbl, clock, _ := newTable(t)
	t0 := clock.Now()
	if err := tbl.Insert(Entry{VBase: 0x1000, Pages: 1, PBase: 1}); err != nil {
		t.Fatal(err)
	}
	small := clock.Since(t0)
	t1 := clock.Now()
	if err := tbl.Insert(Entry{VBase: 1 << 40, Pages: 1 << 20, PBase: 1000}); err != nil {
		t.Fatal(err)
	}
	large := clock.Since(t1)
	if small != large {
		t.Fatalf("insert costs differ by size: %v vs %v (must be O(1))", small, large)
	}
}

func TestUpdateFlags(t *testing.T) {
	tbl, _, _ := newTable(t)
	if err := tbl.Insert(Entry{VBase: 0x2000, Pages: 100, PBase: 7, Flags: pagetable.FlagRead}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.UpdateFlags(0x2000, pagetable.FlagRead|pagetable.FlagWrite); err != nil {
		t.Fatal(err)
	}
	e, _ := tbl.Lookup(0x2000)
	if e.Flags&pagetable.FlagWrite == 0 {
		t.Fatal("flags not updated")
	}
	if err := tbl.UpdateFlags(0x9000, 0); err == nil {
		t.Fatal("UpdateFlags on missing range succeeded")
	}
}

func TestManyRangesSortedLookup(t *testing.T) {
	tbl, _, _ := newTable(t)
	for i := 0; i < 100; i++ {
		e := Entry{VBase: mem.VirtAddr(i * 1 << 20), Pages: 16, PBase: mem.Frame(i * 1000)}
		if err := tbl.Insert(e); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i := 0; i < 100; i++ {
		va := mem.VirtAddr(i*1<<20) + 5*mem.FrameSize
		e, ok := tbl.Lookup(va)
		if !ok || e.PBase != mem.Frame(i*1000) {
			t.Fatalf("lookup %d failed: %+v ok=%v", i, e, ok)
		}
	}
	if err := tbl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRTLBHitMiss(t *testing.T) {
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	r := NewRTLB(sim.MachineOf(clock, &params).BootCPU(), &params, 4)
	e := Entry{VBase: 0x100000, Pages: 1 << 18, PBase: 0} // 1 GiB range
	if _, ok := r.Lookup(0, 0x100000); ok {
		t.Fatal("hit on empty RTLB")
	}
	r.Insert(0, e)
	// One entry covers a gigabyte of sparse touches.
	for i := 0; i < 100; i++ {
		va := e.VBase + mem.VirtAddr(i*104729)*mem.FrameSize%mem.VirtAddr(e.Pages*mem.FrameSize)
		if _, ok := r.Lookup(0, va); !ok {
			t.Fatalf("miss inside cached range at step %d", i)
		}
	}
	if r.Stats().Value("hits") != 100 {
		t.Fatalf("hits = %d", r.Stats().Value("hits"))
	}
}

func TestRTLBEviction(t *testing.T) {
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	r := NewRTLB(sim.MachineOf(clock, &params).BootCPU(), &params, 2)
	for i := 0; i < 3; i++ {
		r.Insert(0, Entry{VBase: mem.VirtAddr(i << 30), Pages: 1, PBase: mem.Frame(i)})
	}
	if r.ValidEntries() != 2 {
		t.Fatalf("ValidEntries = %d, want 2", r.ValidEntries())
	}
	if r.Stats().Value("evictions") != 1 {
		t.Fatalf("evictions = %d", r.Stats().Value("evictions"))
	}
	// LRU: entry 0 was oldest, should be gone.
	if _, ok := r.Lookup(0, 0); ok {
		t.Fatal("LRU entry survived")
	}
}

func TestRTLBInvalidate(t *testing.T) {
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	r := NewRTLB(sim.MachineOf(clock, &params).BootCPU(), &params, 8)
	e := Entry{VBase: 0x40000000, Pages: 1 << 18, PBase: 0}
	r.Insert(0, e)
	r.Invalidate(0, e.VBase)
	if _, ok := r.Lookup(0, e.VBase); ok {
		t.Fatal("entry survived invalidate")
	}
	if r.ValidEntries() != 0 {
		t.Fatal("invalidate left the entry cached")
	}
}

func TestRTLBDefaultCapacity(t *testing.T) {
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	r := NewRTLB(sim.MachineOf(clock, &params).BootCPU(), &params, 0)
	for i := 0; i < DefaultRTLBEntries+5; i++ {
		r.Insert(0, Entry{VBase: mem.VirtAddr(i << 30), Pages: 1, PBase: mem.Frame(i)})
	}
	if r.ValidEntries() != DefaultRTLBEntries {
		t.Fatalf("ValidEntries = %d, want %d", r.ValidEntries(), DefaultRTLBEntries)
	}
}

// Property: translate(insert(range)) is the identity offset mapping for
// every address inside the range, and never resolves outside it.
func TestRangeTranslationQuickProperty(t *testing.T) {
	f := func(baseVPN uint32, pages uint16, pbase uint32, probe uint32) bool {
		if pages == 0 {
			pages = 1
		}
		tbl, _, _ := func() (*Table, *sim.Clock, sim.Params) {
			clock := &sim.Clock{}
			params := sim.DefaultParams()
			return New(clock, &params), clock, params
		}()
		e := Entry{
			VBase: mem.VirtAddr(baseVPN) << mem.FrameShift,
			Pages: uint64(pages),
			PBase: mem.Frame(pbase),
		}
		if err := tbl.Insert(e); err != nil {
			return false
		}
		off := uint64(probe) % (uint64(pages) * mem.FrameSize)
		va := e.VBase + mem.VirtAddr(off)
		got, ok := tbl.Lookup(va)
		if !ok {
			return false
		}
		return got.Translate(va) == e.PBase.Addr()+mem.PhysAddr(off)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
