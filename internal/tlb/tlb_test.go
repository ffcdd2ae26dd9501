package tlb

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/sim"
)

func newTLB(t *testing.T) (*TLB, *sim.Clock, sim.Params) {
	t.Helper()
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	cpu := sim.MachineOf(clock, &params).BootCPU()
	return New(cpu, &params, DefaultConfig()), clock, params
}

func TestPageSizeHelpers(t *testing.T) {
	if Size4K.Frames() != 1 || Size2M.Frames() != 512 || Size1G.Frames() != 512*512 {
		t.Fatal("Frames wrong")
	}
	if Size2M.Bytes() != 2<<20 {
		t.Fatal("Bytes wrong")
	}
	if Size4K.String() != "4K" || Size2M.String() != "2M" || Size1G.String() != "1G" {
		t.Fatal("String wrong")
	}
	if s, err := SizeForFrames(512); err != nil || s != Size2M {
		t.Fatalf("SizeForFrames(512) = %v, %v", s, err)
	}
	if _, err := SizeForFrames(3); err == nil {
		t.Fatal("SizeForFrames(3) accepted")
	}
}

func TestTranslationTranslate(t *testing.T) {
	tr := Translation{Frame: 100, Size: Size2M}
	va := mem.VirtAddr(2<<20 + 0x3456) // in the second 2M page if base were 0
	got := tr.Translate(va)
	want := mem.Frame(100).Addr() + 0x3456
	if got != want {
		t.Fatalf("Translate = %#x, want %#x", uint64(got), uint64(want))
	}
}

func TestMissThenHit(t *testing.T) {
	tl, _, _ := newTLB(t)
	va := mem.VirtAddr(0x7000)
	if _, ok := tl.Lookup(0, va); ok {
		t.Fatal("hit on empty TLB")
	}
	tl.Insert(0, va, Translation{Frame: 7, Size: Size4K, Flags: pagetable.FlagRead})
	tr, ok := tl.Lookup(0, va)
	if !ok || tr.Frame != 7 {
		t.Fatalf("lookup after insert: ok=%v frame=%d", ok, tr.Frame)
	}
	if tl.Stats().Value("l1_hits") != 1 || tl.Stats().Value("misses") != 1 {
		t.Fatalf("stats: %s", tl.Stats())
	}
}

func TestHitIsCheaperThanMiss(t *testing.T) {
	tl, clock, params := newTLB(t)
	va := mem.VirtAddr(0x9000)
	tl.Insert(0, va, Translation{Frame: 9, Size: Size4K})
	t0 := clock.Now()
	tl.Lookup(0, va)
	hitCost := clock.Since(t0)
	t1 := clock.Now()
	tl.Lookup(0, 0xFFFF000)
	missCost := clock.Since(t1)
	if hitCost != params.TLBHit {
		t.Fatalf("hit cost %v, want %v", hitCost, params.TLBHit)
	}
	if missCost <= hitCost {
		t.Fatalf("miss (%v) not costlier than hit (%v)", missCost, hitCost)
	}
}

func TestHugeEntryCoversWholePage(t *testing.T) {
	tl, _, _ := newTLB(t)
	base := mem.VirtAddr(2 << 20)
	tl.Insert(0, base, Translation{Frame: 512, Size: Size2M})
	// Any address inside the 2M page must hit.
	tr, ok := tl.Lookup(0, base+1234567%((2<<20)-1))
	if !ok || tr.Size != Size2M {
		t.Fatalf("huge lookup: ok=%v size=%v", ok, tr.Size)
	}
	// An address in the next 2M page must miss.
	if _, ok := tl.Lookup(0, base+2<<20); ok {
		t.Fatal("hit outside huge page")
	}
}

func Test1GEntry(t *testing.T) {
	tl, _, _ := newTLB(t)
	tl.Insert(0, 0, Translation{Frame: 0, Size: Size1G})
	if _, ok := tl.Lookup(0, 512<<20); !ok {
		t.Fatal("1G entry did not cover interior address")
	}
	if _, ok := tl.Lookup(0, 1<<30); ok {
		t.Fatal("1G entry covered next gigabyte")
	}
}

func TestInvalidateVA(t *testing.T) {
	tl, _, _ := newTLB(t)
	va := mem.VirtAddr(0x4000)
	tl.Insert(0, va, Translation{Frame: 4, Size: Size4K})
	tl.InvalidateVA(0, va)
	if _, ok := tl.Lookup(0, va); ok {
		t.Fatal("entry survived invalidation")
	}
}

func TestFlushAll(t *testing.T) {
	tl, clock, params := newTLB(t)
	for i := 0; i < 20; i++ {
		tl.Insert(0, mem.VirtAddr(i)<<12, Translation{Frame: mem.Frame(i), Size: Size4K})
	}
	if tl.ValidEntries() == 0 {
		t.Fatal("no entries before flush")
	}
	t0 := clock.Now()
	tl.FlushAll()
	if got := clock.Since(t0); got != params.TLBFullFlush {
		t.Fatalf("flush charged %v, want flat %v", got, params.TLBFullFlush)
	}
	if tl.ValidEntries() != 0 {
		t.Fatalf("%d entries survived flush", tl.ValidEntries())
	}
}

func TestASIDIsolation(t *testing.T) {
	tl, _, _ := newTLB(t)
	va := mem.VirtAddr(0x8000)
	tl.Insert(1, va, Translation{Frame: 8, Size: Size4K})
	if _, ok := tl.Lookup(2, va); ok {
		t.Fatal("ASID 2 hit ASID 1's entry")
	}
	if tr, ok := tl.Lookup(1, va); !ok || tr.Frame != 8 {
		t.Fatalf("ASID 1 lookup: ok=%v tr=%+v", ok, tr)
	}
	// Invalidation is per-ASID too.
	tl.Insert(2, va, Translation{Frame: 9, Size: Size4K})
	tl.InvalidateVA(1, va)
	if _, ok := tl.Lookup(1, va); ok {
		t.Fatal("ASID 1 entry survived invalidation")
	}
	if _, ok := tl.Lookup(2, va); !ok {
		t.Fatal("ASID 2 entry lost to ASID 1's invalidation")
	}
}

func TestL2CatchesL1Evictions(t *testing.T) {
	tl, _, _ := newTLB(t)
	// Fill far beyond L1 capacity (64 4K entries) but within L2 (1536).
	// Use the same L1 set by stepping by L1Sets4K pages.
	n := 300
	for i := 0; i < n; i++ {
		va := mem.VirtAddr(i) * mem.FrameSize
		tl.Insert(0, va, Translation{Frame: mem.Frame(i), Size: Size4K})
	}
	// Early entries should have been evicted from L1 but still hit L2.
	tl.Stats().Reset()
	hits := 0
	for i := 0; i < n; i++ {
		va := mem.VirtAddr(i) * mem.FrameSize
		if tr, ok := tl.Lookup(0, va); ok && tr.Frame == mem.Frame(i) {
			hits++
		}
	}
	if hits != n {
		t.Fatalf("only %d/%d survived in the hierarchy", hits, n)
	}
	if tl.Stats().Value("l2_hits") == 0 {
		t.Fatal("expected some L2 hits after L1 overflow")
	}
}

func TestCapacityEviction(t *testing.T) {
	tl, _, _ := newTLB(t)
	// Insert more 4K entries than the whole hierarchy holds.
	n := 4000
	for i := 0; i < n; i++ {
		va := mem.VirtAddr(i) * mem.FrameSize
		tl.Insert(0, va, Translation{Frame: mem.Frame(i), Size: Size4K})
	}
	if tl.Stats().Value("evictions") == 0 {
		t.Fatal("no evictions after overflowing capacity")
	}
	// Sparse touch over a huge region: every access must miss —
	// the behaviour that motivates range translations.
	tl.Stats().Reset()
	misses := 0
	for i := 0; i < 100; i++ {
		va := mem.VirtAddr(n+i*7919) * mem.FrameSize
		if _, ok := tl.Lookup(0, va); !ok {
			misses++
		}
	}
	if misses != 100 {
		t.Fatalf("%d/100 cold lookups missed, want all", misses)
	}
}

func TestMixedSizesDoNotAlias(t *testing.T) {
	tl, _, _ := newTLB(t)
	tl.Insert(0, 0, Translation{Frame: 1, Size: Size4K})
	tl.Insert(0, 2<<20, Translation{Frame: 512, Size: Size2M})
	tr, ok := tl.Lookup(0, 0)
	if !ok || tr.Size != Size4K || tr.Frame != 1 {
		t.Fatalf("4K entry wrong: %+v ok=%v", tr, ok)
	}
	tr, ok = tl.Lookup(0, 2<<20+0x5000)
	if !ok || tr.Size != Size2M {
		t.Fatalf("2M entry wrong: %+v ok=%v", tr, ok)
	}
}

// TestNewRejectsBadGeometry pins that a set count that is not a power
// of two, or an array with no ways, is refused when the TLB is built
// rather than mis-indexed later.
func TestNewRejectsBadGeometry(t *testing.T) {
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	cpu := sim.MachineOf(clock, &params).BootCPU()
	bad := map[string]func(*Config){
		"l1 4K sets 12":   func(c *Config) { c.L1Sets4K = 12 },
		"l1 4K sets 0":    func(c *Config) { c.L1Sets4K = 0 },
		"l1 huge sets -8": func(c *Config) { c.L1SetsHuge = -8 },
		"l2 sets 96":      func(c *Config) { c.L2Sets = 96 },
		"l1 4K ways 0":    func(c *Config) { c.L1Ways4K = 0 },
		"l1 huge ways -1": func(c *Config) { c.L1WaysHuge = -1 },
		"l2 ways 0":       func(c *Config) { c.L2Ways = 0 },
	}
	for name, mutate := range bad {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			mutate(&cfg)
			defer func() {
				if recover() == nil {
					t.Fatalf("New accepted %+v", cfg)
				}
			}()
			New(cpu, &params, cfg)
		})
	}
	// The smallest legal geometry: one set of one way per array.
	tl := New(cpu, &params, Config{L1Sets4K: 1, L1Ways4K: 1, L1SetsHuge: 1, L1WaysHuge: 1, L2Sets: 1, L2Ways: 1})
	tl.Insert(1, 0x1000, Translation{Frame: 1, Size: Size4K})
	if tr, ok := tl.Lookup(1, 0x1000); !ok || tr.Frame != 1 {
		t.Fatalf("1x1 TLB lookup = %+v, %v", tr, ok)
	}
}

// missFill is the TLB side of a sparse read: probe a random page and,
// on a miss, fill the translation a page walk would have found.
type missFill struct {
	tl  *TLB
	vas []mem.VirtAddr
	i   int
}

func newMissFill(cpu *sim.CPU, params *sim.Params) *missFill {
	const pages = 1 << 16
	rng := sim.NewRNG(1)
	vas := make([]mem.VirtAddr, pages)
	for i := range vas {
		vas[i] = mem.VirtAddr(rng.Uint64n(pages)) << 12
	}
	return &missFill{tl: New(cpu, params, DefaultConfig()), vas: vas}
}

func (m *missFill) step() {
	va := m.vas[m.i&(len(m.vas)-1)]
	m.i++
	if _, ok := m.tl.Lookup(1, va); !ok {
		m.tl.Insert(1, va, Translation{Frame: mem.Frame(va >> 12), Size: Size4K, Flags: pagetable.FlagRead})
	}
}

// TestMissFillAllocatesNothing pins a probe-and-fill at zero host
// allocations, so a miss costs no garbage on the host either.
func TestMissFillAllocatesNothing(t *testing.T) {
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	m := newMissFill(sim.MachineOf(clock, &params).BootCPU(), &params)
	if n := testing.AllocsPerRun(10000, m.step); n != 0 {
		t.Fatalf("miss-plus-fill allocates %v times per call", n)
	}
	if m.tl.Stats().Value("misses") == 0 || m.tl.Stats().Value("evictions") == 0 {
		t.Fatalf("the probe sequence missed no entry or evicted none: %s", m.tl.Stats())
	}
}

// BenchmarkTLBMissFill measures the TLB work of a sparse read: a
// random 4 KiB page out of 64Ki pages (about 40x the TLB's reach) is
// probed, and filled on a miss, so nearly every op is a full miss
// through both levels plus a fill that evicts in L1 and L2.
func BenchmarkTLBMissFill(b *testing.B) {
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	m := newMissFill(sim.MachineOf(clock, &params).BootCPU(), &params)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.step()
	}
}

// BenchmarkTLBHit measures an L1 hit: 32 resident 4 KiB pages probed
// round robin, well within the 64-entry first level.
func BenchmarkTLBHit(b *testing.B) {
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	tl := New(sim.MachineOf(clock, &params).BootCPU(), &params, DefaultConfig())
	const pages = 32
	for i := 0; i < pages; i++ {
		tl.Insert(1, mem.VirtAddr(i)<<12, Translation{Frame: mem.Frame(i), Size: Size4K})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tl.Lookup(1, mem.VirtAddr(i%pages)<<12); !ok {
			b.Fatal("resident page missed")
		}
	}
}
