package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/pagetable"
	"repro/internal/sim"
)

const rw = pagetable.FlagRead | pagetable.FlagWrite | pagetable.FlagUser
const ro = pagetable.FlagRead | pagetable.FlagUser

func newSystem(t *testing.T) (*System, *sim.Clock) {
	t.Helper()
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	memory, err := mem.New(clock, &params, mem.Config{DRAMFrames: 16384, NVMFrames: 1 << 18}) // 1 GiB NVM
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(clock, &params, memory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s, clock
}

func bothModes(t *testing.T, fn func(t *testing.T, mode TranslationMode)) {
	t.Helper()
	for _, mode := range []TranslationMode{Ranges, SharedPT} {
		t.Run(mode.String(), func(t *testing.T) { fn(t, mode) })
	}
}

func TestPBMAddressing(t *testing.T) {
	pa := mem.PhysAddr(0x12345678)
	va := VAForPhys(pa)
	got, err := PhysForVA(va)
	if err != nil || got != pa {
		t.Fatalf("round trip: %#x, %v", uint64(got), err)
	}
	if _, err := PhysForVA(0x1000); err == nil {
		t.Fatal("non-PBM address accepted")
	}
}

func TestAllocWriteReadRoundTrip(t *testing.T) {
	bothModes(t, func(t *testing.T, mode TranslationMode) {
		s, _ := newSystem(t)
		p, err := s.NewProcess(mode)
		if err != nil {
			t.Fatal(err)
		}
		m, err := p.AllocVolatile(100, rw)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Contiguous() {
			t.Fatal("fresh allocation not contiguous")
		}
		data := bytes.Repeat([]byte("file-only!"), 5000) // 50 KB
		if err := p.WriteBuf(m.Base(), data); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if err := p.ReadBuf(m.Base(), got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("round trip mismatch")
		}
		if err := p.Exit(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestFreshAllocationIsZero(t *testing.T) {
	bothModes(t, func(t *testing.T, mode TranslationMode) {
		s, _ := newSystem(t)
		p, _ := s.NewProcess(mode)
		// Dirty then free a region, then allocate again and verify
		// zeroes (the O(1)-erase security property).
		m1, err := p.AllocVolatile(64, rw)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.WriteBuf(m1.Base(), bytes.Repeat([]byte{0xFF}, 64*mem.FrameSize)); err != nil {
			t.Fatal(err)
		}
		if err := p.Unmap(m1); err != nil {
			t.Fatal(err)
		}
		m2, err := p.AllocVolatile(64, rw)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64*mem.FrameSize)
		if err := p.ReadBuf(m2.Base(), buf); err != nil {
			t.Fatal(err)
		}
		for i, b := range buf {
			if b != 0 {
				t.Fatalf("[%v] reused memory leaked byte %#x at %d", mode, b, i)
			}
		}
	})
}

// TestAllocCostIndependentOfSize is the paper's headline property:
// allocating and mapping memory costs the same whether it is 16 pages
// or a quarter million.
func TestAllocCostIndependentOfSize(t *testing.T) {
	bothModes(t, func(t *testing.T, mode TranslationMode) {
		s, clock := newSystem(t)
		p, _ := s.NewProcess(mode)

		cost := func(pages uint64) sim.Time {
			t0 := clock.Now()
			m, err := p.AllocVolatile(pages, rw)
			if err != nil {
				t.Fatal(err)
			}
			d := clock.Since(t0)
			if err := p.Unmap(m); err != nil {
				t.Fatal(err)
			}
			return d
		}
		// Warm up (builds master chunks in SharedPT mode — the
		// amortized pre-created page tables).
		cost(1 << 16)
		small := cost(16)
		large := cost(1 << 16) // 256 MiB
		ratio := float64(large) / float64(small)
		limit := 3.0
		if mode == SharedPT {
			// SharedPT pays one link per 2 MiB: 128 links for 256 MiB.
			limit = 64
		}
		if ratio > limit {
			t.Fatalf("alloc cost grows with size: 16 pages %v, 65536 pages %v (ratio %.1f > %.1f)",
				small, large, ratio, limit)
		}
	})
}

func TestMapFileSharedAcrossProcesses(t *testing.T) {
	bothModes(t, func(t *testing.T, mode TranslationMode) {
		s, _ := newSystem(t)
		f, err := s.CreateContiguousFile("/shared", 512, memfs.CreateOptions{}, true)
		if err != nil {
			t.Fatal(err)
		}
		p1, _ := s.NewProcess(mode)
		p2, _ := s.NewProcess(mode)
		m1, err := p1.MapFile(f, rw)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := p2.MapFile(f, rw)
		if err != nil {
			t.Fatal(err)
		}
		// PBM: identical virtual addresses in every process.
		if m1.Base() != m2.Base() {
			t.Fatalf("PBM addresses differ: %#x vs %#x", uint64(m1.Base()), uint64(m2.Base()))
		}
		// Writes by one process are visible to the other.
		if err := p1.WriteBuf(m1.Base()+12345, []byte("cross-process")); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 13)
		if err := p2.ReadBuf(m2.Base()+12345, got); err != nil {
			t.Fatal(err)
		}
		if string(got) != "cross-process" {
			t.Fatalf("p2 read %q", got)
		}
		if err := p1.Exit(); err != nil {
			t.Fatal(err)
		}
		if err := p2.Exit(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	})
}

// TestNthProcessMapIsO1 verifies the Figure 3/8 property: after the
// first process has mapped a file, each additional process maps it
// with constant work per 2 MiB chunk (SharedPT) or per extent (Ranges),
// never per page.
func TestNthProcessMapIsO1(t *testing.T) {
	s, clock := newSystem(t)
	f, err := s.CreateContiguousFile("/big", 16*512, memfs.CreateOptions{}, true) // 32 MiB
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// First SharedPT process pays chunk construction.
	p1, _ := s.NewProcess(SharedPT)
	t0 := clock.Now()
	if _, err := p1.MapFile(f, rw); err != nil {
		t.Fatal(err)
	}
	firstCost := clock.Since(t0)

	// Later processes only link.
	p2, _ := s.NewProcess(SharedPT)
	t1 := clock.Now()
	if _, err := p2.MapFile(f, rw); err != nil {
		t.Fatal(err)
	}
	laterCost := clock.Since(t1)

	if laterCost*10 > firstCost {
		t.Fatalf("shared map not amortized: first %v, later %v", firstCost, laterCost)
	}
	// And the later cost must be far below per-page PTE writes.
	params := sim.DefaultParams()
	perPage := sim.Time(16*512) * params.PTEWrite
	if laterCost >= perPage {
		t.Fatalf("later map cost %v >= per-page cost %v", laterCost, perPage)
	}
}

func TestProtectionEnforced(t *testing.T) {
	bothModes(t, func(t *testing.T, mode TranslationMode) {
		s, _ := newSystem(t)
		p, _ := s.NewProcess(mode)
		m, err := p.AllocVolatile(chunkPages, rw)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.WriteByteAt(m.Base(), 1); err != nil {
			t.Fatal(err)
		}
		if err := p.Protect(m, ro); err != nil {
			t.Fatalf("Protect: %v", err)
		}
		var ae *AccessError
		if err := p.WriteByteAt(m.Base(), 2); !errors.As(err, &ae) {
			t.Fatalf("write after RO protect: %v", err)
		}
		if _, err := p.ReadByteAt(m.Base()); err != nil {
			t.Fatalf("read after RO protect: %v", err)
		}
		if err := p.Protect(m, rw); err != nil {
			t.Fatal(err)
		}
		if err := p.WriteByteAt(m.Base(), 3); err != nil {
			t.Fatalf("write after RW protect: %v", err)
		}
	})
}

func TestMapFileModeExceeded(t *testing.T) {
	s, _ := newSystem(t)
	f, err := s.CreateContiguousFile("/ro", 512, memfs.CreateOptions{Mode: ro}, true)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, _ := s.NewProcess(Ranges)
	if _, err := p.MapFile(f, rw); err == nil {
		t.Fatal("RW mapping of RO file accepted")
	}
	if _, err := p.MapFile(f, ro); err != nil {
		t.Fatal(err)
	}
}

func TestUnmappedAccessFails(t *testing.T) {
	bothModes(t, func(t *testing.T, mode TranslationMode) {
		s, _ := newSystem(t)
		p, _ := s.NewProcess(mode)
		var ae *AccessError
		if err := p.Touch(PBMBase+0x123000, false); !errors.As(err, &ae) {
			t.Fatalf("unmapped touch: %v", err)
		}
		m, _ := p.AllocVolatile(chunkPages, rw)
		if err := p.Unmap(m); err != nil {
			t.Fatal(err)
		}
		if err := p.Touch(m.Base(), false); !errors.As(err, &ae) {
			t.Fatalf("touch after unmap: %v", err)
		}
	})
}

func TestExitReclaimsEverything(t *testing.T) {
	bothModes(t, func(t *testing.T, mode TranslationMode) {
		s, _ := newSystem(t)
		free0 := s.FreeFrames()
		p, _ := s.NewProcess(mode)
		for i := 0; i < 10; i++ {
			if _, err := p.AllocVolatile(uint64(64*(i+1)), rw); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Exit(); err != nil {
			t.Fatal(err)
		}
		if got := s.FreeFrames(); got != free0 {
			t.Fatalf("frames leaked at exit: %d -> %d", free0, got)
		}
		if _, err := p.AllocVolatile(1, rw); err == nil {
			t.Fatal("alloc after exit accepted")
		}
		if err := p.Exit(); err == nil {
			t.Fatal("double exit accepted")
		}
	})
}

func TestNamedFilePersistsAcrossCrash(t *testing.T) {
	s, _ := newSystem(t)
	f, err := s.CreateContiguousFile("/db", 512, memfs.CreateOptions{Durability: memfs.Persistent}, true)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := s.NewProcess(Ranges)
	m, err := p.MapFile(f, rw)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteBuf(m.Base(), []byte("survives crashes")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Crash: processes die, volatile files vanish, NVM persists.
	s.memory.Crash()
	if _, err := s.Remount(); err != nil {
		t.Fatal(err)
	}

	g, err := s.FS().Open("/db")
	if err != nil {
		t.Fatalf("persistent file lost: %v", err)
	}
	p2, _ := s.NewProcess(Ranges)
	m2, err := p2.MapFile(g, ro)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	if err := p2.ReadBuf(m2.Base(), got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "survives crashes" {
		t.Fatalf("data after crash: %q", got)
	}
}

func TestDiscardUnderPressure(t *testing.T) {
	s, _ := newSystem(t)
	f, err := s.CreateContiguousFile("/cache", 1024, memfs.CreateOptions{Discardable: true}, true)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	free0 := s.FreeFrames()
	freed, err := s.DiscardUnderPressure(512)
	if err != nil {
		t.Fatal(err)
	}
	if freed < 512 {
		t.Fatalf("freed %d, want >= 512", freed)
	}
	if s.FreeFrames() <= free0 {
		t.Fatal("no frames returned")
	}
}

func TestVAForOffsetAndSegments(t *testing.T) {
	s, _ := newSystem(t)
	p, _ := s.NewProcess(Ranges)
	m, err := p.AllocVolatile(100, rw)
	if err != nil {
		t.Fatal(err)
	}
	va, err := m.VAForOffset(50 * mem.FrameSize)
	if err != nil {
		t.Fatal(err)
	}
	if va != m.Base()+50*mem.FrameSize {
		t.Fatalf("VAForOffset = %#x", uint64(va))
	}
	if _, err := m.VAForOffset(200 * mem.FrameSize); err == nil {
		t.Fatal("offset beyond mapping accepted")
	}
	segs := m.Segments()
	if len(segs) != 1 || segs[0].Pages != 100 {
		t.Fatalf("segments = %+v", segs)
	}
	if m.Bytes() != 100*mem.FrameSize || m.Pages() != 100 {
		t.Fatal("size accessors wrong")
	}
	if m.File() == nil {
		t.Fatal("mapping has no file")
	}
}

func TestModeString(t *testing.T) {
	if Ranges.String() != "ranges" || SharedPT.String() != "shared-pt" {
		t.Fatal("mode strings")
	}
}

func TestMapEmptyFileRejected(t *testing.T) {
	s, _ := newSystem(t)
	f, err := s.FS().Create("/empty", memfs.CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, _ := s.NewProcess(Ranges)
	if _, err := p.MapFile(f, rw); err == nil {
		t.Fatal("empty file mapping accepted")
	}
}

func TestForeignMappingOwnership(t *testing.T) {
	s, _ := newSystem(t)
	p1, _ := s.NewProcess(Ranges)
	p2, _ := s.NewProcess(Ranges)
	m, _ := p1.AllocVolatile(16, rw)
	if err := p2.Unmap(m); err == nil {
		t.Fatal("unmap of foreign mapping accepted")
	}
	if err := p1.Unmap(m); err != nil {
		t.Fatal(err)
	}
	if err := p1.Unmap(m); err == nil {
		t.Fatal("double unmap accepted")
	}
}

// Property: for random allocation sizes, data written at random
// offsets reads back identically, and the frames of distinct live
// mappings never overlap.
func TestAllocQuickProperty(t *testing.T) {
	s, _ := newSystem(t)
	p, _ := s.NewProcess(Ranges)
	owned := make(map[mem.Frame]bool)
	var live []*Mapping
	fn := func(pages16 uint16, probe uint32, val byte) bool {
		pages := uint64(pages16)%2048 + 1
		m, err := p.AllocVolatile(pages, rw)
		if err != nil {
			t.Logf("alloc: %v", err)
			return false
		}
		for _, seg := range m.Segments() {
			for f := seg.Frame; f < seg.Frame+mem.Frame(seg.Pages); f++ {
				if owned[f] {
					t.Logf("frame %d double-owned", f)
					return false
				}
				owned[f] = true
			}
		}
		off := uint64(probe) % m.Bytes()
		if err := p.WriteByteAt(m.Base()+mem.VirtAddr(off), val); err != nil {
			return false
		}
		got, err := p.ReadByteAt(m.Base() + mem.VirtAddr(off))
		if err != nil || got != val {
			return false
		}
		live = append(live, m)
		if len(live) > 8 {
			victim := live[0]
			live = live[1:]
			for _, seg := range victim.Segments() {
				for f := seg.Frame; f < seg.Frame+mem.Frame(seg.Pages); f++ {
					delete(owned, f)
				}
			}
			if err := p.Unmap(victim); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	if err := s.FS().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGigabyteSubtreeLinks(t *testing.T) {
	// A machine whose NVM region starts 1 GiB-aligned and holds 4 GiB,
	// so order-18 (1 GiB) buddy blocks exist.
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	memory, err := mem.New(clock, &params, mem.Config{
		DRAMFrames: 1 << 30 >> mem.FrameShift,
		NVMFrames:  4 << 30 >> mem.FrameShift,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(clock, &params, memory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := s.NewProcess(SharedPT)
	// 1 GiB allocation: buddy hands back a 1 GiB-aligned block, so the
	// whole thing links at level 3 — one entry write.
	gig := uint64(1) << 30 >> 12
	m1, err := p1.AllocVolatile(gig, rw)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Value("chunk_links"); got != 1 {
		t.Fatalf("chunk_links = %d, want 1 (one level-3 link)", got)
	}
	if got := s.Stats().Value("chunk_builds"); got != 512 {
		t.Fatalf("chunk_builds = %d, want 512 (one-time)", got)
	}
	// Data plane works through the gig link.
	if err := p1.WriteBuf(m1.Base()+512<<20, []byte("mid-gig")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 7)
	if err := p1.ReadBuf(m1.Base()+512<<20, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "mid-gig" {
		t.Fatalf("read %q", got)
	}
	if err := p1.Unmap(m1); err != nil {
		t.Fatal(err)
	}

	// Steady state: realloc of the same GiB is a single link with no
	// new chunk builds.
	before := clock.Now()
	m2, err := p1.AllocVolatile(gig, rw)
	if err != nil {
		t.Fatal(err)
	}
	cost := clock.Since(before)
	if got := s.Stats().Value("chunk_builds"); got != 512 {
		t.Fatalf("chunk rebuilds after reuse: %d", got)
	}
	// The steady-state 1 GiB map must cost about the same as a small
	// one (single-entry link).
	small := clock.Now()
	m3, err := p1.AllocVolatile(chunkPages, rw)
	if err != nil {
		t.Fatal(err)
	}
	smallCost := clock.Since(small)
	if cost > 3*smallCost {
		t.Fatalf("steady-state 1GiB map (%v) not O(1) vs 2MiB map (%v)", cost, smallCost)
	}
	if err := p1.Unmap(m2); err != nil {
		t.Fatal(err)
	}
	if err := p1.Unmap(m3); err != nil {
		t.Fatal(err)
	}
}

func TestFragmentedFileMapsAcrossSegments(t *testing.T) {
	s, _ := newSystem(t)
	fs := s.FS()
	// Fragment the store: allocate pinning files, carve holes.
	var pins []*memfs.File
	for i := 0; i < 8; i++ {
		f, err := fs.Create(fmt.Sprintf("/pin%d", i), memfs.CreateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Truncate(96 * mem.FrameSize); err != nil {
			t.Fatal(err)
		}
		pins = append(pins, f)
	}
	for i := 0; i < 8; i += 2 {
		if err := pins[i].Truncate(0); err != nil {
			t.Fatal(err)
		}
	}
	// A file larger than any hole must come back multi-extent.
	frag, err := fs.Create("/frag", memfs.CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := frag.Truncate(200 * mem.FrameSize); err != nil {
		t.Fatal(err)
	}
	if len(frag.Inode().Extents()) < 2 {
		t.Skipf("store did not fragment (got %d extents)", len(frag.Inode().Extents()))
	}

	p, _ := s.NewProcess(Ranges)
	m, err := p.MapFile(frag, rw)
	if err != nil {
		t.Fatal(err)
	}
	if m.Contiguous() {
		t.Fatal("multi-extent mapping reported contiguous")
	}
	// Write a pattern across every segment boundary via VAForOffset.
	for page := uint64(0); page < 200; page += 7 {
		va, err := m.VAForOffset(page * mem.FrameSize)
		if err != nil {
			t.Fatalf("VAForOffset(%d): %v", page, err)
		}
		if err := p.WriteByteAt(va, byte(page)); err != nil {
			t.Fatal(err)
		}
	}
	for page := uint64(0); page < 200; page += 7 {
		va, _ := m.VAForOffset(page * mem.FrameSize)
		b, err := p.ReadByteAt(va)
		if err != nil || b != byte(page) {
			t.Fatalf("page %d: %d, %v", page, b, err)
		}
	}
	// The data is the file's: read it back through the file API.
	var buf [1]byte
	if _, err := frag.ReadAt(buf[:], 7*mem.FrameSize); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 7 {
		t.Fatalf("file sees %d at page 7", buf[0])
	}
	if err := p.Unmap(m); err != nil {
		t.Fatal(err)
	}
}

func TestRTLBPressureManyMappings(t *testing.T) {
	s, _ := newSystem(t)
	p, err := s.NewProcess(Ranges)
	if err != nil {
		t.Fatal(err)
	}
	// More live mappings than RTLB entries (default 32): correctness
	// must hold, with range-table walks backfilling misses.
	const n = 64
	var maps [n]*Mapping
	for i := 0; i < n; i++ {
		m, err := p.AllocVolatile(4, rw)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.WriteByteAt(m.Base(), byte(i)); err != nil {
			t.Fatal(err)
		}
		maps[i] = m
	}
	p.RTLB().Stats().Reset()
	for i := 0; i < n; i++ {
		b, err := p.ReadByteAt(maps[i].Base())
		if err != nil {
			t.Fatal(err)
		}
		if b != byte(i) {
			t.Fatalf("mapping %d reads %d", i, b)
		}
	}
	if p.RTLB().Stats().Value("misses") == 0 {
		t.Fatal("expected RTLB misses with 64 live mappings in a 32-entry RTLB")
	}
	if len(p.RangeTable().Entries()) != n {
		t.Fatalf("range table holds %d entries, want %d", len(p.RangeTable().Entries()), n)
	}
	if err := p.Exit(); err != nil {
		t.Fatal(err)
	}
}

func TestMasterTablesPersistAcrossCrash(t *testing.T) {
	// §3.1: "pre-created page tables can be stored persistently, so
	// that even when mapping a file the first time, an existing page
	// table can be re-used for O(1) operations." The system models
	// masters as persistent: after a crash + remount, mapping the same
	// persistent file builds no new chunks.
	s, _ := newSystem(t)
	f, err := s.CreateContiguousFile("/lib", 4*chunkPages,
		memfs.CreateOptions{Durability: memfs.Persistent}, true)
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := s.NewProcess(SharedPT)
	if _, err := p1.MapFile(f, ro); err != nil {
		t.Fatal(err)
	}
	builds := s.Stats().Value("chunk_builds")
	if builds == 0 {
		t.Fatal("no chunks built on first map")
	}
	f.Close()

	s.memory.Crash()
	if _, err := s.Remount(); err != nil {
		t.Fatal(err)
	}
	g, err := s.FS().Open("/lib")
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := s.NewProcess(SharedPT)
	if _, err := p2.MapFile(g, ro); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Value("chunk_builds"); got != builds {
		t.Fatalf("chunks rebuilt after crash: %d -> %d", builds, got)
	}
}
