// Package rangetable implements the paper's proposed hardware range
// translations (§3.2/§4.3, Figures 4/5/9, after Gandhi et al.): a range
// table of (base, limit, offset, protection) entries plus a small fully
// associative range TLB.
//
// One entry maps an arbitrarily long contiguous virtual range to a
// contiguous physical range, so installing, removing, or shooting down
// a mapping is a single-entry operation regardless of the range size —
// the hardware half of O(1) memory. Lookups on a range-TLB miss walk
// the (sorted) range table; the charged cost is per table operation,
// never per page.
package rangetable

import (
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/pagetable"
	"repro/internal/sim"
)

// Entry is one range translation: virtual pages
// [VBase, VBase+Pages*4K) map to physical frames [PBase, PBase+Pages).
type Entry struct {
	VBase mem.VirtAddr
	Pages uint64
	PBase mem.Frame
	Flags pagetable.Flags
}

// VEnd returns the first virtual address past the range.
func (e Entry) VEnd() mem.VirtAddr { return e.VBase + mem.VirtAddr(e.Pages*mem.FrameSize) }

// Contains reports whether va falls inside the range.
func (e Entry) Contains(va mem.VirtAddr) bool { return va >= e.VBase && va < e.VEnd() }

// Translate applies the range's fixed offset to va. The caller must
// ensure Contains(va).
func (e Entry) Translate(va mem.VirtAddr) mem.PhysAddr {
	return e.PBase.Addr() + mem.PhysAddr(va-e.VBase)
}

// Table is one address space's range table, kept sorted by VBase.
type Table struct {
	clock  *sim.Clock
	params *sim.Params

	entries []Entry
	stats   *metrics.Set
	// Cached counters for the per-operation paths.
	cInserts, cRemoves, cWalks *metrics.Counter
}

// New creates an empty range table.
func New(clock *sim.Clock, params *sim.Params) *Table {
	t := &Table{clock: clock, params: params, stats: metrics.NewSet()}
	t.cInserts = t.stats.Counter("inserts")
	t.cRemoves = t.stats.Counter("removes")
	t.cWalks = t.stats.Counter("walks")
	return t
}

// Stats exposes counters: "inserts", "removes", "walks".
func (t *Table) Stats() *metrics.Set { return t.stats }

// Entries returns a copy of the installed ranges in address order.
func (t *Table) Entries() []Entry {
	out := make([]Entry, len(t.entries))
	copy(out, t.entries)
	return out
}

// ReplayEntries models rebuilding the table from a metadata journal
// after a crash: one range-table operation per entry, independent of
// how many pages each entry spans. This is the O(extents) recovery
// path of the range-translation design. Returns the entry count.
func (t *Table) ReplayEntries() int {
	t.clock.Advance(sim.Time(len(t.entries)) * t.params.RangeTableOp)
	return len(t.entries)
}

// search returns the index of the first entry with VBase > va.
func (t *Table) search(va mem.VirtAddr) int {
	return sort.Search(len(t.entries), func(i int) bool {
		return t.entries[i].VBase > va
	})
}

// Insert installs a range translation. The charged cost is one range
// table operation — independent of e.Pages, which is the entire point.
// Overlapping ranges are rejected.
func (t *Table) Insert(e Entry) error {
	if e.Pages == 0 {
		return fmt.Errorf("rangetable: empty range")
	}
	if uint64(e.VBase)%mem.FrameSize != 0 {
		return fmt.Errorf("rangetable: base %#x not page aligned", uint64(e.VBase))
	}
	t.clock.Advance(t.params.RangeTableOp)
	t.cInserts.Inc()
	i := t.search(e.VBase)
	// Check the neighbours for overlap.
	if i > 0 && t.entries[i-1].VEnd() > e.VBase {
		return fmt.Errorf("rangetable: [%#x,+%d pages) overlaps existing range at %#x",
			uint64(e.VBase), e.Pages, uint64(t.entries[i-1].VBase))
	}
	if i < len(t.entries) && t.entries[i].VBase < e.VEnd() {
		return fmt.Errorf("rangetable: [%#x,+%d pages) overlaps existing range at %#x",
			uint64(e.VBase), e.Pages, uint64(t.entries[i].VBase))
	}
	t.entries = append(t.entries, Entry{})
	copy(t.entries[i+1:], t.entries[i:])
	t.entries[i] = e
	return nil
}

// Remove deletes the range starting exactly at vbase and returns it.
// Like Insert, the charged cost is one table operation.
func (t *Table) Remove(vbase mem.VirtAddr) (Entry, error) {
	t.clock.Advance(t.params.RangeTableOp)
	t.cRemoves.Inc()
	i := t.search(vbase)
	if i == 0 || t.entries[i-1].VBase != vbase {
		return Entry{}, fmt.Errorf("rangetable: no range starts at %#x", uint64(vbase))
	}
	e := t.entries[i-1]
	t.entries = append(t.entries[:i-1], t.entries[i:]...)
	return e, nil
}

// Lookup walks the table for va (binary search), charging one table
// operation. It is the miss path of the range TLB.
func (t *Table) Lookup(va mem.VirtAddr) (Entry, bool) {
	t.clock.Advance(t.params.RangeTableOp)
	t.cWalks.Inc()
	i := t.search(va)
	if i == 0 {
		return Entry{}, false
	}
	if e := t.entries[i-1]; e.Contains(va) {
		return e, true
	}
	return Entry{}, false
}

// LookupNoCharge is Lookup without simulated cost (assertions).
func (t *Table) LookupNoCharge(va mem.VirtAddr) (Entry, bool) {
	i := t.search(va)
	if i == 0 {
		return Entry{}, false
	}
	if e := t.entries[i-1]; e.Contains(va) {
		return e, true
	}
	return Entry{}, false
}

// UpdateFlags rewrites the protection of the range starting at vbase —
// a single-entry operation (file-grain protection change).
func (t *Table) UpdateFlags(vbase mem.VirtAddr, flags pagetable.Flags) error {
	t.clock.Advance(t.params.RangeTableOp)
	i := t.search(vbase)
	if i == 0 || t.entries[i-1].VBase != vbase {
		return fmt.Errorf("rangetable: no range starts at %#x", uint64(vbase))
	}
	t.entries[i-1].Flags = flags
	return nil
}

// CheckInvariants verifies sortedness and non-overlap.
func (t *Table) CheckInvariants() error {
	for i := 1; i < len(t.entries); i++ {
		if t.entries[i-1].VEnd() > t.entries[i].VBase {
			return fmt.Errorf("rangetable: entries %d and %d overlap", i-1, i)
		}
	}
	return nil
}

// RTLB is the fully associative range TLB of one simulated CPU: a
// handful of entries, each covering an arbitrarily large range, with
// LRU replacement. Entries are tagged with an address-space ID so all
// processes scheduled on the CPU share the structure.
type RTLB struct {
	cpu    *sim.CPU
	params *sim.Params

	capacity int
	entries  []rtlbEntry
	stamp    uint64

	stats *metrics.Set
	// Cached counters for the per-access probe path.
	cHits, cMisses, cEvictions *metrics.Counter
}

type rtlbEntry struct {
	asid int
	e    Entry
	lru  uint64
}

// DefaultRTLBEntries matches the modest size proposed for range TLBs.
const DefaultRTLBEntries = 32

// NewRTLB creates the range TLB of one CPU with the given entry count.
// Costs are charged to that CPU's clock.
func NewRTLB(cpu *sim.CPU, params *sim.Params, capacity int) *RTLB {
	if capacity <= 0 {
		capacity = DefaultRTLBEntries
	}
	r := &RTLB{cpu: cpu, params: params, capacity: capacity, stats: metrics.NewSet()}
	r.cHits = r.stats.Counter("hits")
	r.cMisses = r.stats.Counter("misses")
	r.cEvictions = r.stats.Counter("evictions")
	return r
}

// Stats exposes counters: "hits", "misses", "evictions".
func (r *RTLB) Stats() *metrics.Set { return r.stats }

// Lookup probes the range TLB. A hit charges RangeTLBHit; on a miss the
// caller walks the range table and Inserts the result.
func (r *RTLB) Lookup(asid int, va mem.VirtAddr) (Entry, bool) {
	for i := range r.entries {
		if r.entries[i].asid == asid && r.entries[i].e.Contains(va) {
			r.stamp++
			r.entries[i].lru = r.stamp
			r.cpu.Advance(r.params.RangeTLBHit)
			r.cHits.Inc()
			return r.entries[i].e, true
		}
	}
	r.cpu.Advance(r.params.RangeTLBHit) // probe cost, hit or miss
	r.cMisses.Inc()
	return Entry{}, false
}

// Insert caches a range translation, evicting the LRU entry if full.
func (r *RTLB) Insert(asid int, e Entry) {
	r.stamp++
	if len(r.entries) < r.capacity {
		r.entries = append(r.entries, rtlbEntry{asid: asid, e: e, lru: r.stamp})
		return
	}
	victim := 0
	for i := 1; i < len(r.entries); i++ {
		if r.entries[i].lru < r.entries[victim].lru {
			victim = i
		}
	}
	r.entries[victim] = rtlbEntry{asid: asid, e: e, lru: r.stamp}
	r.cEvictions.Inc()
}

// Invalidate drops any cached entry of the address space whose range
// starts at vbase — the O(1) shootdown of a whole mapping the paper
// highlights: one entry per CPU, regardless of mapping size.
func (r *RTLB) Invalidate(asid int, vbase mem.VirtAddr) {
	for i := 0; i < len(r.entries); i++ {
		if r.entries[i].asid == asid && r.entries[i].e.VBase == vbase {
			r.entries[i] = r.entries[len(r.entries)-1]
			r.entries = r.entries[:len(r.entries)-1]
			i--
		}
	}
	r.cpu.Advance(r.params.TLBFlushEntry)
}

// ValidEntries returns the number of cached ranges.
func (r *RTLB) ValidEntries() int { return len(r.entries) }

// VisitEntries calls fn for every cached range with its address-space
// tag. It charges no simulated cost and has no LRU side effects;
// invariant checkers use it to audit the cache against range tables.
func (r *RTLB) VisitEntries(fn func(asid int, e Entry)) {
	for i := range r.entries {
		fn(r.entries[i].asid, r.entries[i].e)
	}
}
