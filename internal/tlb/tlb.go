// Package tlb models a processor translation lookaside buffer: a split
// first level (separate 4 KiB and 2 MiB/1 GiB arrays, as on modern x86
// cores) backed by a unified second level. Entries are set-associative
// with LRU replacement inside each set.
//
// The TLB is the reason §3.2/§4.3 of the paper argue software O(1) is
// not enough: every miss costs a page walk, so even a pre-populated
// page-table mapping pays a per-page charge on first access. The range
// TLB in package rangetable removes that term for contiguous extents.
package tlb

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/pagetable"
	"repro/internal/sim"
)

// PageSize identifies the mapping granularity of a TLB entry.
type PageSize int

// Supported page sizes.
const (
	Size4K PageSize = iota
	Size2M
	Size1G
)

// Frames returns the page size in 4 KiB frames.
func (s PageSize) Frames() uint64 {
	switch s {
	case Size4K:
		return 1
	case Size2M:
		return mem.HugeFrames2M
	case Size1G:
		return mem.HugeFrames1G
	default:
		panic(fmt.Sprintf("tlb: unknown page size %d", int(s)))
	}
}

// Bytes returns the page size in bytes.
func (s PageSize) Bytes() uint64 { return s.Frames() * mem.FrameSize }

// String returns the conventional size name.
func (s PageSize) String() string {
	switch s {
	case Size4K:
		return "4K"
	case Size2M:
		return "2M"
	case Size1G:
		return "1G"
	default:
		return fmt.Sprintf("PageSize(%d)", int(s))
	}
}

// SizeForFrames maps a frame span to a PageSize.
func SizeForFrames(frames uint64) (PageSize, error) {
	switch frames {
	case 1:
		return Size4K, nil
	case mem.HugeFrames2M:
		return Size2M, nil
	case mem.HugeFrames1G:
		return Size1G, nil
	default:
		return Size4K, fmt.Errorf("tlb: %d frames is not a page size", frames)
	}
}

// Translation is a cached virtual-to-physical mapping.
type Translation struct {
	Frame mem.Frame // first frame of the page
	Size  PageSize
	Flags pagetable.Flags
}

// Translate applies the cached mapping to va.
func (tr Translation) Translate(va mem.VirtAddr) mem.PhysAddr {
	off := uint64(va) % tr.Size.Bytes()
	return tr.Frame.Addr() + mem.PhysAddr(off)
}

// tag is the hot half of one TLB slot: everything a probe or a victim
// scan reads, 32 bytes, so a 12-way set scans 384 bytes. The cached
// translation lives in the array's parallel trs slice and is read only
// on a hit. A slot is valid iff its gen equals its array's current
// generation, so a full flush is one increment rather than a pass over
// every slot.
type tag struct {
	gen  uint64 // generation the slot was filled in; 0 = invalidated
	vpn  uint64 // va >> size-dependent shift
	asid int    // address-space tag (PCID analogue)
	lru  uint64
}

type array struct {
	mask  uint64        // sets-1; sets is a power of two
	ways  int           // ways per set
	tags  []tag         // sets*ways, set-major
	trs   []Translation // trs[i] is the translation of tags[i]
	stamp uint64
	gen   uint64 // current generation; starts at 1, so zeroed slots are invalid
}

func newArray(sets, ways int) *array {
	if sets < 1 || sets&(sets-1) != 0 || ways < 1 {
		panic(fmt.Sprintf("tlb: %d sets of %d ways; sets must be a power of two and ways at least 1", sets, ways))
	}
	return &array{
		mask: uint64(sets - 1),
		ways: ways,
		tags: make([]tag, sets*ways),
		trs:  make([]Translation, sets*ways),
		gen:  1,
	}
}

func vpnFor(va mem.VirtAddr, size PageSize) uint64 {
	switch size {
	case Size4K:
		return uint64(va) >> 12
	case Size2M:
		return uint64(va) >> 21
	default:
		return uint64(va) >> 30
	}
}

// set returns the index of the first slot of the set vpn maps to, and
// that set's tags.
func (a *array) set(vpn uint64) (int, []tag) {
	base := int(vpn&a.mask) * a.ways
	return base, a.tags[base : base+a.ways]
}

// find returns the tag and index of the slot holding (asid, vpn), or
// nil and -1.
func (a *array) find(asid int, vpn uint64) (*tag, int) {
	gen := a.gen
	base, set := a.set(vpn)
	for i := range set {
		if e := &set[i]; e.vpn == vpn && e.gen == gen && e.asid == asid {
			return e, base + i
		}
	}
	return nil, -1
}

// lookup returns the translation cached for (asid, vpn), or nil, and
// marks its slot most recently used.
func (a *array) lookup(asid int, vpn uint64) *Translation {
	e, slot := a.find(asid, vpn)
	if e == nil {
		return nil
	}
	a.stamp++
	e.lru = a.stamp
	return &a.trs[slot]
}

// insert fills a slot of vpn's set with (asid, vpn, tr) and returns
// it, and whether a valid entry for another page was evicted from it.
// The victim is the first way, in way order, that is invalid or already
// holds (asid, vpn); failing that, the least recently used way (the
// first on ties). An invalid way ahead of a valid duplicate therefore
// wins, and the duplicate stays.
func (a *array) insert(asid int, vpn uint64, tr Translation) (slot int, evicted bool) {
	gen := a.gen
	base, set := a.set(vpn)
	victim := -1
	for i := range set {
		if e := &set[i]; e.gen != gen || e.vpn == vpn && e.asid == asid {
			victim = i
			break
		}
	}
	if victim < 0 {
		// The minimum is kept in locals so the compiler can turn the
		// update into conditional moves: LRU order is random, so a
		// branch here mispredicts.
		evicted, victim = true, 0
		oldest := set[0].lru
		for i := 1; i < len(set); i++ {
			if lru := set[i].lru; lru < oldest {
				victim, oldest = i, lru
			}
		}
	}
	a.stamp++
	set[victim] = tag{gen: gen, vpn: vpn, asid: asid, lru: a.stamp}
	slot = base + victim
	a.trs[slot] = tr
	return slot, evicted
}

func (a *array) invalidate(asid int, vpn uint64) bool {
	e, _ := a.find(asid, vpn)
	if e != nil {
		e.gen = 0
	}
	return e != nil
}

// flush invalidates every entry by starting a new generation.
func (a *array) flush() { a.gen++ }

// Config sets the TLB geometry. Set counts must be powers of two (a
// set is picked with a mask, as in hardware) and every array needs at
// least one way; New panics otherwise.
type Config struct {
	L1Sets4K, L1Ways4K     int
	L1SetsHuge, L1WaysHuge int
	L2Sets, L2Ways         int
}

// DefaultConfig mirrors a contemporary x86 core: 64-entry 4-way L1 for
// 4 KiB pages, 32-entry 4-way L1 for huge pages, 1536-entry 12-way
// unified L2.
func DefaultConfig() Config {
	return Config{
		L1Sets4K: 16, L1Ways4K: 4,
		L1SetsHuge: 8, L1WaysHuge: 4,
		L2Sets: 128, L2Ways: 12,
	}
}

// TLB is the translation cache of one simulated CPU. Entries are
// tagged with an address-space ID (a PCID analogue), so processes
// scheduled on the same CPU share the arrays without aliasing and
// without full flushes on switch.
type TLB struct {
	cpu    *sim.CPU
	params *sim.Params

	l14k   *array
	l1huge *array
	l2     *array // unified; keyed by l2key, which folds in the page size

	stats *metrics.Set
	// Cached counters: Lookup runs once per simulated memory access, so
	// the per-call map lookup in Set.Counter is worth avoiding.
	cL1Hits, cL2Hits, cMisses, cEvictions, cFlushes *metrics.Counter
}

// New creates the TLB of one CPU with the given geometry, which must
// satisfy Config's constraints (a bad geometry is a programming error
// and panics). Lookup and invalidation costs are charged to that CPU's
// clock regardless of which CPU initiated the operation (shootdown
// handlers run on the target).
func New(cpu *sim.CPU, params *sim.Params, cfg Config) *TLB {
	t := &TLB{
		cpu:    cpu,
		params: params,
		l14k:   newArray(cfg.L1Sets4K, cfg.L1Ways4K),
		l1huge: newArray(cfg.L1SetsHuge, cfg.L1WaysHuge),
		l2:     newArray(cfg.L2Sets, cfg.L2Ways),
		stats:  metrics.NewSet(),
	}
	t.cL1Hits = t.stats.Counter("l1_hits")
	t.cL2Hits = t.stats.Counter("l2_hits")
	t.cMisses = t.stats.Counter("misses")
	t.cEvictions = t.stats.Counter("evictions")
	t.cFlushes = t.stats.Counter("flushes")
	return t
}

// Stats exposes counters: "l1_hits", "l2_hits", "misses",
// "evictions", "flushes".
func (t *TLB) Stats() *metrics.Set { return t.stats }

// CPU returns the CPU this TLB belongs to.
func (t *TLB) CPU() *sim.CPU { return t.cpu }

// l2key folds the page size into the key so differently sized entries
// cannot alias in the unified array.
func l2key(vpn uint64, size PageSize) uint64 {
	return vpn<<2 | uint64(size)
}

// Lookup probes the TLB for va. On a hit it charges TLBHit and returns
// the translation; on a miss it charges the miss-probe cost and the
// caller must walk the page table and Insert the result.
func (t *TLB) Lookup(asid int, va mem.VirtAddr) (Translation, bool) {
	// L1 probes happen in parallel in hardware; charge a single hit.
	// The probes are written out (not ranged over a probe table) so the
	// per-access path allocates nothing and stays branch-predictable.
	// Both l1huge probes run even when the first finds an entry of the
	// other size: the hit still bumps that entry's LRU stamp.
	if tr := t.l14k.lookup(asid, vpnFor(va, Size4K)); tr != nil && tr.Size == Size4K {
		t.cpu.Advance(t.params.TLBHit)
		t.cL1Hits.Inc()
		return *tr, true
	}
	if tr := t.l1huge.lookup(asid, vpnFor(va, Size2M)); tr != nil && tr.Size == Size2M {
		t.cpu.Advance(t.params.TLBHit)
		t.cL1Hits.Inc()
		return *tr, true
	}
	if tr := t.l1huge.lookup(asid, vpnFor(va, Size1G)); tr != nil && tr.Size == Size1G {
		t.cpu.Advance(t.params.TLBHit)
		t.cL1Hits.Inc()
		return *tr, true
	}
	// L2 probe, smallest page size first, as in the L1 pass.
	for size := Size4K; size <= Size1G; size++ {
		if tr := t.l2.lookup(asid, l2key(vpnFor(va, size), size)); tr != nil {
			t.cpu.Advance(t.params.TLBHit + t.params.TLBMiss)
			t.cL2Hits.Inc()
			// Promote to L1.
			hit := *tr
			t.insertL1(asid, va, hit)
			return hit, true
		}
	}
	t.cpu.Advance(t.params.TLBMiss)
	t.cMisses.Inc()
	return Translation{}, false
}

// Peek reports whether the TLB holds a translation for va without
// charging cost or touching LRU state. Tests use it to assert
// post-shootdown staleness invariants.
func (t *TLB) Peek(asid int, va mem.VirtAddr) (Translation, bool) {
	if _, i := t.l14k.find(asid, vpnFor(va, Size4K)); i >= 0 && t.l14k.trs[i].Size == Size4K {
		return t.l14k.trs[i], true
	}
	if _, i := t.l1huge.find(asid, vpnFor(va, Size2M)); i >= 0 && t.l1huge.trs[i].Size == Size2M {
		return t.l1huge.trs[i], true
	}
	if _, i := t.l1huge.find(asid, vpnFor(va, Size1G)); i >= 0 && t.l1huge.trs[i].Size == Size1G {
		return t.l1huge.trs[i], true
	}
	for size := Size4K; size <= Size1G; size++ {
		if _, i := t.l2.find(asid, l2key(vpnFor(va, size), size)); i >= 0 {
			return t.l2.trs[i], true
		}
	}
	return Translation{}, false
}

func (t *TLB) insertL1(asid int, va mem.VirtAddr, tr Translation) {
	arr := t.l14k
	if tr.Size != Size4K {
		arr = t.l1huge
	}
	if _, evict := arr.insert(asid, vpnFor(va, tr.Size), tr); evict {
		t.cEvictions.Inc()
	}
}

// Insert caches a translation for va (typically after a page walk).
// Entries are installed in both L1 and L2, as on inclusive designs.
func (t *TLB) Insert(asid int, va mem.VirtAddr, tr Translation) {
	t.insertL1(asid, va, tr)
	if _, evict := t.l2.insert(asid, l2key(vpnFor(va, tr.Size), tr.Size), tr); evict {
		t.cEvictions.Inc()
	}
}

// InvalidateVA drops any entry covering va in the given address space
// (all sizes, both levels), charging the single-entry invalidation
// cost to this TLB's CPU.
func (t *TLB) InvalidateVA(asid int, va mem.VirtAddr) {
	t.l14k.invalidate(asid, vpnFor(va, Size4K))
	t.l1huge.invalidate(asid, vpnFor(va, Size2M))
	t.l1huge.invalidate(asid, vpnFor(va, Size1G))
	for size := Size4K; size <= Size1G; size++ {
		t.l2.invalidate(asid, l2key(vpnFor(va, size), size))
	}
	t.cpu.Advance(t.params.TLBFlushEntry)
}

// SinglePageFlushCeiling is the largest range (in pages) flushed with
// per-page invalidations; larger ranges use a full flush instead,
// mirroring Linux's tlb_single_page_flush_ceiling heuristic.
const SinglePageFlushCeiling = 33

// InvalidateRange drops every entry covering [va, va+pages*4K) in the
// given address space. Small ranges pay one per-entry invalidation per
// page; ranges beyond SinglePageFlushCeiling fall back to a full flush
// — constant time, with the real cost resurfacing as refill misses.
func (t *TLB) InvalidateRange(asid int, va mem.VirtAddr, pages uint64) {
	if pages > SinglePageFlushCeiling {
		t.FlushAll()
		return
	}
	for p := uint64(0); p < pages; p++ {
		t.InvalidateVA(asid, va+mem.VirtAddr(p*mem.FrameSize))
	}
}

// FlushAll invalidates the entire TLB — every address space — at the
// flat full-flush cost (a non-PCID CR3 write drops everything in one
// operation; the real cost resurfaces later as refill misses).
func (t *TLB) FlushAll() {
	t.l14k.flush()
	t.l1huge.flush()
	t.l2.flush()
	t.cpu.Advance(t.params.TLBFullFlush)
	t.cFlushes.Inc()
}

// VisitEntries calls fn for every valid entry across both levels with
// the entry's address space, the virtual base address of the page it
// maps, and the cached translation. It charges no simulated cost and
// has no LRU side effects: invariant checkers use it to audit the
// whole cache. The same (asid, va) pair may be reported more than once
// (the design is inclusive, so an entry usually lives in L1 and L2).
func (t *TLB) VisitEntries(fn func(asid int, va mem.VirtAddr, tr Translation)) {
	visit := func(a *array, decode func(vpn uint64, tr Translation) mem.VirtAddr) {
		for i := range a.tags {
			if e := &a.tags[i]; e.gen == a.gen {
				fn(e.asid, decode(e.vpn, a.trs[i]), a.trs[i])
			}
		}
	}
	visit(t.l14k, func(vpn uint64, _ Translation) mem.VirtAddr {
		return mem.VirtAddr(vpn << 12)
	})
	visit(t.l1huge, func(vpn uint64, tr Translation) mem.VirtAddr {
		if tr.Size == Size1G {
			return mem.VirtAddr(vpn << 30)
		}
		return mem.VirtAddr(vpn << 21)
	})
	visit(t.l2, func(key uint64, _ Translation) mem.VirtAddr {
		vpn := key >> 2
		switch PageSize(key & 3) {
		case Size4K:
			return mem.VirtAddr(vpn << 12)
		case Size2M:
			return mem.VirtAddr(vpn << 21)
		default:
			return mem.VirtAddr(vpn << 30)
		}
	})
}

// ValidEntries returns the number of valid entries across both levels
// (diagnostic).
func (t *TLB) ValidEntries() int {
	n := 0
	for _, a := range []*array{t.l14k, t.l1huge, t.l2} {
		for i := range a.tags {
			if a.tags[i].gen == a.gen {
				n++
			}
		}
	}
	return n
}
