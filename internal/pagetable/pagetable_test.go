package pagetable

import (
	"testing"
	"testing/quick"

	"repro/internal/buddy"
	"repro/internal/mem"
	"repro/internal/sim"
)

func newTable(t *testing.T, levels int) (*Table, *buddy.Allocator, *sim.CPU) {
	t.Helper()
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	cpu := sim.MachineOf(clock, &params).BootCPU()
	bud, err := buddy.New(clock, &params, 0, 1<<20) // 4 GiB of frames
	if err != nil {
		t.Fatalf("buddy.New: %v", err)
	}
	tbl, err := New(cpu, &params, NewPool(bud), levels)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tbl, bud, cpu
}

func TestNewRejectsBadLevels(t *testing.T) {
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	bud, _ := buddy.New(clock, &params, 0, 64)
	if _, err := New(sim.MachineOf(clock, &params).BootCPU(), &params, NewPool(bud), 3); err == nil {
		t.Fatal("accepted 3-level table")
	}
}

func TestMapWalkRoundTrip(t *testing.T) {
	tbl, _, cpu := newTable(t, Levels4)
	va := mem.VirtAddr(0x7f0000001000)
	if err := tbl.Map(cpu, va, 1234, FlagRead|FlagWrite); err != nil {
		t.Fatalf("Map: %v", err)
	}
	pa, flags, levels, ok := tbl.Walk(cpu, va+123)
	if !ok {
		t.Fatal("Walk missed mapped address")
	}
	if pa != mem.Frame(1234).Addr()+123 {
		t.Fatalf("pa = %#x, want frame 1234 + 123", uint64(pa))
	}
	if flags != FlagRead|FlagWrite {
		t.Fatalf("flags = %v", flags)
	}
	if levels != 4 {
		t.Fatalf("walk touched %d levels, want 4", levels)
	}
	if tbl.MappedPages() != 1 {
		t.Fatalf("MappedPages = %d, want 1", tbl.MappedPages())
	}
}

func TestWalkUnmappedFails(t *testing.T) {
	tbl, _, cpu := newTable(t, Levels4)
	if _, _, _, ok := tbl.Walk(cpu, 0x1000); ok {
		t.Fatal("Walk succeeded on empty table")
	}
}

func TestDoubleMapRejected(t *testing.T) {
	tbl, _, cpu := newTable(t, Levels4)
	va := mem.VirtAddr(0x1000)
	if err := tbl.Map(cpu, va, 1, FlagRead); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Map(cpu, va, 2, FlagRead); err == nil {
		t.Fatal("double map accepted")
	}
}

func TestVirtualAddressBounds(t *testing.T) {
	tbl4, _, cpu := newTable(t, Levels4)
	if err := tbl4.Map(cpu, tbl4.MaxVirt(), 1, FlagRead); err == nil {
		t.Fatal("4-level table accepted out-of-reach address")
	}
	tbl5, _, cpu := newTable(t, Levels5)
	// An address valid for 5 levels but not 4.
	va := tbl4.MaxVirt()
	if err := tbl5.Map(cpu, va, 1, FlagRead); err != nil {
		t.Fatalf("5-level table rejected %#x: %v", uint64(va), err)
	}
	if _, _, levels, ok := tbl5.Walk(cpu, va); !ok || levels != 5 {
		t.Fatalf("5-level walk: ok=%v levels=%d", ok, levels)
	}
}

func TestUnmapFreesNodes(t *testing.T) {
	tbl, bud, cpu := newTable(t, Levels4)
	freeBefore := bud.FreeFrames()
	va := mem.VirtAddr(0x2000)
	if err := tbl.Map(cpu, va, 77, FlagRead); err != nil {
		t.Fatal(err)
	}
	frame, pages, err := tbl.Unmap(cpu, va)
	if err != nil {
		t.Fatalf("Unmap: %v", err)
	}
	if frame != 77 || pages != 1 {
		t.Fatalf("Unmap returned frame=%d pages=%d", frame, pages)
	}
	if tbl.MappedPages() != 0 {
		t.Fatalf("MappedPages = %d after unmap", tbl.MappedPages())
	}
	if bud.FreeFrames() != freeBefore {
		t.Fatalf("intermediate nodes leaked: %d -> %d free", freeBefore, bud.FreeFrames())
	}
	if tbl.Nodes() != 1 {
		t.Fatalf("Nodes = %d, want 1 (root only)", tbl.Nodes())
	}
}

func TestUnmapUnmappedRejected(t *testing.T) {
	tbl, _, cpu := newTable(t, Levels4)
	if _, _, err := tbl.Unmap(cpu, 0x5000); err == nil {
		t.Fatal("unmap of unmapped address accepted")
	}
}

func TestMapRange(t *testing.T) {
	tbl, _, cpu := newTable(t, Levels4)
	const pages = 700 // crosses a leaf-node boundary
	if err := tbl.MapRange(cpu, 0x100000, 5000, pages, FlagRead); err != nil {
		t.Fatalf("MapRange: %v", err)
	}
	if tbl.MappedPages() != pages {
		t.Fatalf("MappedPages = %d, want %d", tbl.MappedPages(), pages)
	}
	for i := uint64(0); i < pages; i += 97 {
		va := mem.VirtAddr(0x100000 + i*mem.FrameSize)
		pa, _, ok := tbl.Lookup(va)
		if !ok || pa.Frame() != mem.Frame(5000+i) {
			t.Fatalf("page %d: pa=%#x ok=%v", i, uint64(pa), ok)
		}
	}
}

func TestHugePages2M(t *testing.T) {
	tbl, _, cpu := newTable(t, Levels4)
	va := mem.VirtAddr(4 << 20) // 2MiB aligned
	if err := tbl.Map2M(cpu, va, 512, FlagRead|FlagWrite); err != nil {
		t.Fatalf("Map2M: %v", err)
	}
	if tbl.MappedPages() != 512 {
		t.Fatalf("MappedPages = %d, want 512", tbl.MappedPages())
	}
	// Any address inside the huge page translates with a 3-level walk.
	pa, _, levels, ok := tbl.Walk(cpu, va+300*mem.FrameSize+5)
	if !ok || levels != 3 {
		t.Fatalf("huge walk: ok=%v levels=%d", ok, levels)
	}
	want := mem.Frame(512+300).Addr() + 5
	if pa != want {
		t.Fatalf("pa = %#x, want %#x", uint64(pa), uint64(want))
	}
	if tbl.PageSize(va) != 2<<20 {
		t.Fatalf("PageSize = %d, want 2MiB", tbl.PageSize(va))
	}
	// Mapping a 4K page inside it must fail.
	if err := tbl.Map(cpu, va+0x1000, 9, FlagRead); err == nil {
		t.Fatal("4K map inside huge mapping accepted")
	}
	frame, pages, err := tbl.Unmap(cpu, va)
	if err != nil || frame != 512 || pages != 512 {
		t.Fatalf("Unmap huge: f=%d p=%d err=%v", frame, pages, err)
	}
}

func TestHugePages1G(t *testing.T) {
	tbl, _, cpu := newTable(t, Levels4)
	va := mem.VirtAddr(1 << 30)
	if err := tbl.Map1G(cpu, va, mem.HugeFrames1G, FlagRead); err != nil {
		t.Fatalf("Map1G: %v", err)
	}
	_, _, levels, ok := tbl.Walk(cpu, va+123456789)
	if !ok || levels != 2 {
		t.Fatalf("1G walk: ok=%v levels=%d", ok, levels)
	}
	if tbl.PageSize(va) != 1<<30 {
		t.Fatalf("PageSize = %d", tbl.PageSize(va))
	}
}

func TestHugeAlignmentEnforced(t *testing.T) {
	tbl, _, cpu := newTable(t, Levels4)
	if err := tbl.Map2M(cpu, 0x1000, 512, FlagRead); err == nil {
		t.Fatal("unaligned 2M va accepted")
	}
	if err := tbl.Map2M(cpu, 2<<20, 100, FlagRead); err == nil {
		t.Fatal("unaligned 2M frame accepted")
	}
	if err := tbl.Map1G(cpu, 2<<20, 0, FlagRead); err == nil {
		t.Fatal("unaligned 1G va accepted")
	}
}

func TestProtect(t *testing.T) {
	tbl, _, cpu := newTable(t, Levels4)
	va := mem.VirtAddr(0x3000)
	if err := tbl.Map(cpu, va, 10, FlagRead|FlagWrite); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Protect(cpu, va, FlagRead); err != nil {
		t.Fatalf("Protect: %v", err)
	}
	_, flags, ok := tbl.Lookup(va)
	if !ok || flags != FlagRead {
		t.Fatalf("flags after protect = %v", flags)
	}
	if err := tbl.Protect(cpu, 0x999000, FlagRead); err == nil {
		t.Fatal("protect of unmapped address accepted")
	}
}

func TestMapChargesPerPage(t *testing.T) {
	tbl, _, cpu := newTable(t, Levels4)
	// Map N pages, then N more in the same leaf region; the marginal
	// cost per page must be constant once nodes exist.
	if err := tbl.MapRange(cpu, 0, 0, 64, FlagRead); err != nil {
		t.Fatal(err)
	}
	t0 := cpu.Now()
	if err := tbl.MapRange(cpu, 64*mem.FrameSize, 64, 64, FlagRead); err != nil {
		t.Fatal(err)
	}
	c64 := cpu.Now() - t0
	t1 := cpu.Now()
	if err := tbl.MapRange(cpu, 128*mem.FrameSize, 128, 128, FlagRead); err != nil {
		t.Fatal(err)
	}
	c128 := cpu.Now() - t1
	if c128 <= c64 {
		t.Fatalf("mapping 128 pages (%v) not costlier than 64 (%v)", c128, c64)
	}
	ratio := float64(c128) / float64(c64)
	if ratio < 1.8 || ratio > 2.3 {
		t.Fatalf("cost ratio %v, want ~2 (linear in pages)", ratio)
	}
}

func TestSubtreeSharingO1(t *testing.T) {
	src, _, cpu := newTable(t, Levels4)
	// Build a fully populated 2MiB region (512 pages) in src.
	base := mem.VirtAddr(2 << 20)
	if err := src.MapRange(cpu, base, 0x10000, 512, FlagRead); err != nil {
		t.Fatal(err)
	}

	params := sim.DefaultParams()
	bud2, _ := buddy.New(cpu.Clock(), &params, 1<<20, 1<<20)
	dst, err := New(cpu, &params, NewPool(bud2), Levels4)
	if err != nil {
		t.Fatal(err)
	}
	dstVA := mem.VirtAddr(6 << 20)
	t0 := cpu.Now()
	if err := dst.LinkSubtree(cpu, dstVA, src, base, 2); err != nil {
		t.Fatalf("LinkSubtree: %v", err)
	}
	linkCost := cpu.Now() - t0

	// The link installs the whole 512-page mapping.
	for _, off := range []uint64{0, 5, 511} {
		pa, _, ok := dst.Lookup(dstVA + mem.VirtAddr(off*mem.FrameSize))
		if !ok || pa.Frame() != mem.Frame(0x10000+off) {
			t.Fatalf("shared page %d: pa=%#x ok=%v", off, uint64(pa), ok)
		}
	}
	if dst.MappedPages() != 512 {
		t.Fatalf("dst MappedPages = %d, want 512", dst.MappedPages())
	}

	// O(1): linking must cost far less than mapping 512 pages.
	perPage := sim.DefaultParams().PTEWrite
	if linkCost >= 512*perPage {
		t.Fatalf("link cost %v not O(1) (512 PTE writes would be %v)", linkCost, 512*perPage)
	}

	// Modifying the shared region through dst must be refused.
	if _, _, err := dst.Unmap(cpu, dstVA); err == nil {
		t.Fatal("Unmap inside shared subtree accepted")
	}
	if err := dst.Protect(cpu, dstVA, FlagRead|FlagWrite); err == nil {
		t.Fatal("Protect inside shared subtree accepted")
	}

	if err := dst.UnlinkSubtree(cpu, dstVA, 2); err != nil {
		t.Fatalf("UnlinkSubtree: %v", err)
	}
	if dst.MappedPages() != 0 {
		t.Fatalf("dst MappedPages = %d after unlink", dst.MappedPages())
	}
	// Source still intact.
	if _, _, ok := src.Lookup(base); !ok {
		t.Fatal("source mapping lost after unlink")
	}
}

func TestSharedSubtreeFreedByLastOwner(t *testing.T) {
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	cpu := sim.MachineOf(clock, &params).BootCPU()
	bud, _ := buddy.New(clock, &params, 0, 1<<20)
	pool := NewPool(bud)
	src, _ := New(cpu, &params, pool, Levels4)
	if err := src.MapRange(cpu, 2<<20, 0x200, 512, FlagRead); err != nil {
		t.Fatal(err)
	}
	dst, _ := New(cpu, &params, pool, Levels4)
	if err := dst.LinkSubtree(cpu, 4<<20, src, 2<<20, 2); err != nil {
		t.Fatal(err)
	}
	// Destroy the source first: the shared leaf node must survive for
	// dst, then be freed when dst is destroyed.
	if err := src.Destroy(); err != nil {
		t.Fatalf("src.Destroy: %v", err)
	}
	if pa, _, ok := dst.Lookup(4<<20 + 0x3000); !ok || pa.Frame() != 0x203 {
		t.Fatal("shared mapping unusable after source destroy")
	}
	if err := dst.Destroy(); err != nil {
		t.Fatalf("dst.Destroy: %v", err)
	}
	if bud.FreeFrames() != 1<<20 {
		t.Fatalf("page-table frames leaked: free=%d want=%d", bud.FreeFrames(), 1<<20)
	}
}

func TestSubtreeLinkAlignmentEnforced(t *testing.T) {
	src, _, cpu := newTable(t, Levels4)
	if err := src.MapRange(cpu, 2<<20, 0, 512, FlagRead); err != nil {
		t.Fatal(err)
	}
	dst, _, cpu := newTable(t, Levels4)
	if err := dst.LinkSubtree(cpu, mem.VirtAddr(4<<20+0x1000), src, 2<<20, 2); err == nil {
		t.Fatal("unaligned link accepted")
	}
	if err := dst.LinkSubtree(cpu, 4<<20, src, 3<<20, 2); err == nil {
		t.Fatal("link of absent source subtree accepted (3MiB is not populated)")
	}
}

func TestSubtreeLevel(t *testing.T) {
	if l, err := SubtreeLevel(512); err != nil || l != 2 {
		t.Fatalf("SubtreeLevel(512) = %d, %v", l, err)
	}
	if l, err := SubtreeLevel(512 * 512); err != nil || l != 3 {
		t.Fatalf("SubtreeLevel(512²) = %d, %v", l, err)
	}
	if _, err := SubtreeLevel(100); err == nil {
		t.Fatal("SubtreeLevel(100) accepted")
	}
}

func TestDestroyReleasesEverything(t *testing.T) {
	tbl, bud, cpu := newTable(t, Levels4)
	free0 := bud.FreeFrames() + 1 // +1 for the root allocated by New
	if err := tbl.MapRange(cpu, 0, 0, 2000, FlagRead); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Destroy(); err != nil {
		t.Fatal(err)
	}
	if bud.FreeFrames() != free0 {
		t.Fatalf("frames after destroy = %d, want %d", bud.FreeFrames(), free0)
	}
	if tbl.Nodes() != 0 {
		t.Fatalf("Nodes = %d after destroy", tbl.Nodes())
	}
}

func TestCheckInvariants(t *testing.T) {
	tbl, _, cpu := newTable(t, Levels4)
	if err := tbl.MapRange(cpu, 0, 0, 100, FlagRead); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFlagsString(t *testing.T) {
	if s := (FlagRead | FlagWrite).String(); s != "rw---" {
		t.Fatalf("flags string = %q", s)
	}
	if s := (FlagRead | FlagExec | FlagUser).String(); s != "r-xu-" {
		t.Fatalf("flags string = %q", s)
	}
}

// TestMapLookupQuickProperty: walk(insert(va, frame)) == frame for
// arbitrary page-aligned addresses within reach.
func TestMapLookupQuickProperty(t *testing.T) {
	tbl, _, cpu := newTable(t, Levels4)
	mapped := make(map[mem.VirtAddr]mem.Frame)
	f := func(vpn uint64, frame uint32) bool {
		va := mem.VirtAddr(vpn % (1 << 36) << mem.FrameShift)
		if _, dup := mapped[va]; dup {
			return true
		}
		if err := tbl.Map(cpu, va, mem.Frame(frame), FlagRead); err != nil {
			return false
		}
		mapped[va] = mem.Frame(frame)
		pa, _, ok := tbl.Lookup(va)
		return ok && pa.Frame() == mem.Frame(frame)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// All earlier mappings still intact.
	for va, fr := range mapped {
		pa, _, ok := tbl.Lookup(va)
		if !ok || pa.Frame() != fr {
			t.Fatalf("mapping %#x lost", uint64(va))
		}
	}
	if err := tbl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLeafBytesMatchesPageSize: the page size Walk's level count
// implies equals PageSize for 4 KiB, 2 MiB and 1 GiB leaves on 4- and
// 5-level tables.
func TestLeafBytesMatchesPageSize(t *testing.T) {
	for _, levels := range []int{Levels4, Levels5} {
		tbl, _, cpu := newTable(t, levels)
		maps := []struct {
			va  mem.VirtAddr
			put func(mem.VirtAddr) error
		}{
			{0x5000, func(va mem.VirtAddr) error { return tbl.Map(cpu, va, 9, FlagRead) }},
			{4 << 20, func(va mem.VirtAddr) error { return tbl.Map2M(cpu, va, 512, FlagRead) }},
			{2 << 30, func(va mem.VirtAddr) error { return tbl.Map1G(cpu, va, 0, FlagRead) }},
		}
		for _, m := range maps {
			if err := m.put(m.va); err != nil {
				t.Fatal(err)
			}
			_, _, n, ok := tbl.Walk(cpu, m.va+0x123)
			if got, want := tbl.LeafBytes(n), tbl.PageSize(m.va); !ok || got != want {
				t.Fatalf("levels=%d va=%#x: LeafBytes(%d) = %d, want %d (ok=%v)", levels, uint64(m.va), n, got, want, ok)
			}
		}
	}
}
