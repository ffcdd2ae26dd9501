// Package pagetable implements an x86-64-style radix page table with 4
// (optionally 5) levels of 512-entry nodes, 4 KiB base pages and 2 MiB /
// 1 GiB huge leaf entries.
//
// The package reproduces the costs the paper attributes to page-based
// translation: creating a mapping writes one entry *per page* (plus
// node allocations), and a hardware walk references one node per level.
// It also implements the two O(1) mechanisms from the paper:
//
//   - subtree sharing (§3.1/§4.2, Figure 3/8): an aligned interior entry
//     of one table can point at a node owned by another table, so a
//     whole 2 MiB or 1 GiB mapping is installed with a single entry
//     write; and
//   - pre-created page tables (§3.1): a table can be built once for a
//     file and later linked into any number of processes.
//
// Node frames are allocated from the buddy allocator so that page-table
// memory is part of the machine's physical accounting. Every table
// draws its nodes through a Pool bound to that allocator, which also
// recycles the host-side node structs across tables.
package pagetable

import (
	"fmt"

	"repro/internal/buddy"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Geometry constants.
const (
	// EntriesPerNode is the fan-out of every node (512 = 4 KiB of
	// 8-byte entries).
	EntriesPerNode = 512
	entryIndexBits = 9

	// Levels4 and Levels5 select 48-bit or 57-bit virtual addressing.
	Levels4 = 4
	Levels5 = 5
)

// NestedWalkRefs returns the number of memory references a two-
// dimensional (virtualized) page walk performs with the given guest
// and host table depths: each of the guest's levels plus the final
// guest physical address must itself be translated through the host
// table. For 5-level-on-5-level this is 35 — the figure the paper
// cites for Intel's 5-level EPT ("requires up to 35 memory references
// in virtualized systems").
func NestedWalkRefs(guestLevels, hostLevels int) int {
	return (guestLevels+1)*(hostLevels+1) - 1
}

// Flags are the protection bits of a mapping.
type Flags uint8

const (
	// FlagRead marks the page readable (present implies readable on
	// x86; the simulator keeps it explicit).
	FlagRead Flags = 1 << iota
	// FlagWrite marks the page writable.
	FlagWrite
	// FlagExec marks the page executable.
	FlagExec
	// FlagUser marks the page accessible from user mode.
	FlagUser
	// FlagCOW marks a copy-on-write page: readable now, write faults.
	FlagCOW
)

// String renders the flags as an "rwxuc" mask.
func (f Flags) String() string {
	b := []byte("-----")
	if f&FlagRead != 0 {
		b[0] = 'r'
	}
	if f&FlagWrite != 0 {
		b[1] = 'w'
	}
	if f&FlagExec != 0 {
		b[2] = 'x'
	}
	if f&FlagUser != 0 {
		b[3] = 'u'
	}
	if f&FlagCOW != 0 {
		b[4] = 'c'
	}
	return string(b)
}

// entry is one slot of a node. Leaf entries carry a frame; interior
// entries carry a child node pointer. The word-sized fields come first
// so the three one-byte fields share the last word: 24 bytes, which
// makes a node ~12 KiB on the host.
type entry struct {
	frame   mem.Frame
	child   *node
	flags   Flags
	present bool
	huge    bool // leaf at level 2 (2 MiB) or level 3 (1 GiB)
}

// node is one 512-entry page-table page.
type node struct {
	level   int // 1 = leaf page table; root is at Table.levels
	frame   mem.Frame
	entries [EntriesPerNode]entry
	present int // number of present entries
	refs    int // owners: >1 when shared across tables
}

// reset returns a node to its zero state before it enters the recycled
// pool. Keeping the scrub in one place lets the recycling invariant
// checker (and its poison test) pin down exactly what "clean" means.
func (n *node) reset() {
	*n = node{}
}

// span returns the number of 4 KiB pages covered by one entry at the
// given level (level 1 entry covers 1 page).
func span(level int) uint64 {
	return 1 << (uint(level-1) * entryIndexBits)
}

// indexAt extracts the node index for va at the given level.
func indexAt(va mem.VirtAddr, level int) int {
	return int((va.VPN() >> (uint(level-1) * entryIndexBits)) & (EntriesPerNode - 1))
}

// Table is one address space's page table. Methods that perform
// simulated work take the CPU doing it as their first argument, so
// page-table manipulation is always charged to the clock of the CPU
// that executed it (a fault handler, an unmap syscall, a shootdown
// initiator, ...); tables themselves are CPU-agnostic and may be
// touched from any CPU.
type Table struct {
	params *sim.Params
	pool   *Pool

	levels int
	root   *node

	mapped uint64 // present leaf pages (4 KiB units, huge counted by span)

	// gen changes whenever a node may leave this table's tree or
	// become shared: cursors compare it before trusting a cached path.
	gen uint64

	stats *metrics.Set
	// Cached counters for the per-access paths (a map lookup per PTE
	// write or walk is measurable at this call frequency).
	cPTEWrites, cNodeAllocs, cNodeFrees, cWalks *metrics.Counter
}

// maxSpareNodes bounds each pool's recycled-node list.
const maxSpareNodes = 512

// Pool supplies the nodes of every table built on one buddy allocator:
// the frame comes from the allocator and the host-side node struct
// from a recycled list, slab-style, so address-space churn does not
// allocate a ~12 KiB host object per page-table page. The simulated
// cost (PTNodeAlloc, the buddy frame) is unaffected.
//
// A pool is touched only next to the allocator call it pairs with, so
// it needs exactly the synchronization its allocator already has. Its
// owner is the owner of the allocator: a pool lives and dies with it.
type Pool struct {
	bud   *buddy.Allocator
	spare []*node
}

// NewPool returns an empty node pool drawing frames from bud.
func NewPool(bud *buddy.Allocator) *Pool {
	return &Pool{bud: bud}
}

// alloc takes a frame from the allocator and a node struct from the
// recycled list, falling back to the Go heap when the list is empty.
func (p *Pool) alloc(level int) (*node, error) {
	f, err := p.bud.AllocFrame()
	if err != nil {
		return nil, err
	}
	if n := len(p.spare); n > 0 {
		nd := p.spare[n-1]
		p.spare[n-1] = nil
		p.spare = p.spare[:n-1]
		nd.level = level
		nd.frame = f
		nd.refs = 1
		return nd, nil
	}
	return &node{level: level, frame: f, refs: 1}, nil
}

// free returns n's frame to the allocator and its scrubbed struct to
// the recycled list.
func (p *Pool) free(n *node) error {
	if err := p.bud.Free(n.frame); err != nil {
		return err
	}
	if len(p.spare) < maxSpareNodes {
		n.reset()
		p.spare = append(p.spare, n)
	}
	return nil
}

// SpareScrubbed verifies that every node on the recycled list is fully
// zeroed, i.e. nothing from its previous life can leak into the next
// table that pops it.
func (p *Pool) SpareScrubbed() error {
	zero := node{}
	for i, n := range p.spare {
		if *n != zero {
			return fmt.Errorf("pagetable: spare node %d not scrubbed (level=%d frame=%d present=%d refs=%d)",
				i, n.level, n.frame, n.present, n.refs)
		}
	}
	return nil
}

// New creates an empty table with the given number of levels (Levels4
// or Levels5) whose nodes come from pool. The root node is allocated
// immediately, as in a real address-space creation, charged to cpu.
func New(cpu *sim.CPU, params *sim.Params, pool *Pool, levels int) (*Table, error) {
	if levels != Levels4 && levels != Levels5 {
		return nil, fmt.Errorf("pagetable: unsupported level count %d", levels)
	}
	t := &Table{
		params: params,
		pool:   pool,
		levels: levels,
		stats:  metrics.NewSet(),
	}
	t.cPTEWrites = t.stats.Counter("pte_writes")
	t.cNodeAllocs = t.stats.Counter("node_allocs")
	t.cNodeFrees = t.stats.Counter("node_frees")
	t.cWalks = t.stats.Counter("walks")
	root, err := t.newNode(levels)
	if err != nil {
		return nil, err
	}
	cpu.Advance(params.PTNodeAlloc)
	t.root = root
	return t, nil
}

// MappedPages returns the number of 4 KiB pages currently mapped
// (huge mappings counted by their span).
func (t *Table) MappedPages() uint64 { return t.mapped }

// Nodes returns the number of page-table nodes reachable from this
// table's root (shared subtrees count once). It walks the tree and is
// intended for tests and diagnostics; it charges no simulated time.
func (t *Table) Nodes() int {
	if t.root == nil {
		return 0
	}
	seen := make(map[*node]bool)
	var walk func(n *node)
	walk = func(n *node) {
		if seen[n] {
			return
		}
		seen[n] = true
		if n.level == 1 {
			return
		}
		for i := range n.entries {
			e := &n.entries[i]
			if e.present && !e.huge && e.child != nil {
				walk(e.child)
			}
		}
	}
	walk(t.root)
	return len(seen)
}

// Stats exposes counters: "pte_writes", "node_allocs", "node_frees",
// "walks", "subtree_links", "subtree_unlinks".
func (t *Table) Stats() *metrics.Set { return t.stats }

// MaxVirt returns the first invalid virtual address.
func (t *Table) MaxVirt() mem.VirtAddr {
	return mem.VirtAddr(span(t.levels+1)) << mem.FrameShift
}

// newNode takes a node from the pool and counts it; the caller charges
// PTNodeAlloc with the rest of its operation.
func (t *Table) newNode(level int) (*node, error) {
	nd, err := t.pool.alloc(level)
	if err != nil {
		return nil, fmt.Errorf("pagetable: node allocation: %w", err)
	}
	t.cNodeAllocs.Inc()
	return nd, nil
}

// freeNode drops one reference to n. When the last reference goes, the
// node's children are released recursively and its frame returns to
// the table's pool. Shared subtrees are therefore freed exactly once,
// by whichever table releases them last.
func (t *Table) freeNode(n *node) error {
	n.refs--
	t.cNodeFrees.Inc()
	t.gen++
	if n.refs > 0 {
		return nil // another table still references it
	}
	if n.level > 1 {
		for i := range n.entries {
			e := &n.entries[i]
			if e.present && !e.huge && e.child != nil {
				if err := t.freeNode(e.child); err != nil {
					return err
				}
			}
		}
	}
	return t.pool.free(n)
}

func (t *Table) checkVA(va mem.VirtAddr) error {
	if va >= t.MaxVirt() {
		return fmt.Errorf("pagetable: virtual address %#x beyond %d-level reach", uint64(va), t.levels)
	}
	return nil
}

// Map installs a 4 KiB mapping va -> frame with the given flags,
// creating intermediate nodes as needed. It charges one PTE write plus
// walk and node-allocation costs, exactly the per-page work the paper
// identifies as the linear term of mmap(MAP_POPULATE).
func (t *Table) Map(cpu *sim.CPU, va mem.VirtAddr, frame mem.Frame, flags Flags) error {
	c := t.Cursor()
	return c.Map(cpu, va, frame, flags)
}

// Map2M installs a 2 MiB huge mapping. va must be 2 MiB aligned and
// frame 512-frame aligned.
func (t *Table) Map2M(cpu *sim.CPU, va mem.VirtAddr, frame mem.Frame, flags Flags) error {
	if uint64(va)%(mem.HugeFrames2M*mem.FrameSize) != 0 || uint64(frame)%mem.HugeFrames2M != 0 {
		return fmt.Errorf("pagetable: unaligned 2MiB mapping va=%#x frame=%d", uint64(va), frame)
	}
	c := t.Cursor()
	return c.mapAt(cpu, va, frame, flags, 2)
}

// Map1G installs a 1 GiB huge mapping. va must be 1 GiB aligned and
// frame 512²-frame aligned.
func (t *Table) Map1G(cpu *sim.CPU, va mem.VirtAddr, frame mem.Frame, flags Flags) error {
	if uint64(va)%(mem.HugeFrames1G*mem.FrameSize) != 0 || uint64(frame)%mem.HugeFrames1G != 0 {
		return fmt.Errorf("pagetable: unaligned 1GiB mapping va=%#x frame=%d", uint64(va), frame)
	}
	c := t.Cursor()
	return c.mapAt(cpu, va, frame, flags, 3)
}

func (t *Table) chargePTE(cpu *sim.CPU) {
	cpu.Advance(t.params.PTEWrite)
	t.cPTEWrites.Inc()
}

// MapRange maps count contiguous pages starting at va to contiguous
// frames starting at frame — the baseline populate loop: cost is
// linear in count.
func (t *Table) MapRange(cpu *sim.CPU, va mem.VirtAddr, frame mem.Frame, count uint64, flags Flags) error {
	c := t.Cursor()
	for i := uint64(0); i < count; i++ {
		if err := c.Map(cpu, va+mem.VirtAddr(i*mem.FrameSize), frame+mem.Frame(i), flags); err != nil {
			return err
		}
	}
	return nil
}

// descend finds the leaf entry covering va and the level it sits at,
// or nil when no translation exists, without charging anything. refs
// is the number of levels a hardware walk references on the way: one
// per node visited, and one for an address beyond the table's reach.
func (t *Table) descend(va mem.VirtAddr) (e *entry, level, refs int) {
	if va >= t.MaxVirt() {
		return nil, 0, 1
	}
	n := t.root
	for refs = 1; ; refs++ {
		e = &n.entries[indexAt(va, n.level)]
		if !e.present {
			return nil, n.level, refs
		}
		if n.level == 1 || e.huge {
			return e, n.level, refs
		}
		n = e.child
	}
}

// leafAddr translates va through the leaf e at the given level.
func leafAddr(e *entry, level int, va mem.VirtAddr) mem.PhysAddr {
	off := uint64(va) & (span(level)*mem.FrameSize - 1)
	return e.frame.Addr() + mem.PhysAddr(off)
}

// Walk performs a hardware page walk for va, charging one memory
// reference per level traversed. It returns the translated physical
// address, the mapping's flags, and the number of levels referenced
// (LeafBytes turns that into the page size of a found leaf). ok is
// false if no translation exists. The references are charged in one
// Advance once the walk ends: nothing between the levels reads the
// clock.
func (t *Table) Walk(cpu *sim.CPU, va mem.VirtAddr) (pa mem.PhysAddr, flags Flags, levels int, ok bool) {
	t.cWalks.Inc()
	e, level, levels := t.descend(va)
	cpu.Advance(sim.Time(levels) * t.params.WalkLevelRef)
	if e == nil {
		return 0, 0, levels, false
	}
	return leafAddr(e, level, va), e.flags, levels, true
}

// LeafBytes returns the size in bytes of the page mapped by a leaf
// that a successful Walk reached after referencing levels levels: the
// walk starts at the root and descends one level per reference.
func (t *Table) LeafBytes(levels int) uint64 {
	return span(t.levels-levels+1) * mem.FrameSize
}

// Lookup is Walk without charging virtual time or counters; it is the
// assertion/debug path.
func (t *Table) Lookup(va mem.VirtAddr) (pa mem.PhysAddr, flags Flags, ok bool) {
	c := t.Cursor()
	return c.Lookup(va)
}

// PageSize returns the size in bytes of the mapping covering va
// (4 KiB, 2 MiB or 1 GiB), or 0 if unmapped.
func (t *Table) PageSize(va mem.VirtAddr) uint64 {
	e, level, _ := t.descend(va)
	if e == nil {
		return 0
	}
	return span(level) * mem.FrameSize
}

// Unmap removes the mapping covering va (of whatever page size) and
// returns the frame it mapped and its span in 4 KiB pages. Empty
// intermediate nodes are freed, as in free_pgtables().
func (t *Table) Unmap(cpu *sim.CPU, va mem.VirtAddr) (mem.Frame, uint64, error) {
	c := t.Cursor()
	return c.unmap(cpu, va)
}

// Protect rewrites the flags of the mapping covering va. It returns an
// error if va is unmapped or inside a shared subtree.
func (t *Table) Protect(cpu *sim.CPU, va mem.VirtAddr, flags Flags) error {
	c := t.Cursor()
	return c.Protect(cpu, va, flags)
}

// SubtreeLevel returns the level of the interior entry that exactly
// covers a naturally aligned region of the given page count:
// 512 pages -> level 2 (2 MiB node), 512² -> level 3, 512³ -> level 4.
func SubtreeLevel(pages uint64) (int, error) {
	switch pages {
	case EntriesPerNode:
		return 2, nil
	case EntriesPerNode * EntriesPerNode:
		return 3, nil
	case EntriesPerNode * EntriesPerNode * EntriesPerNode:
		return 4, nil
	default:
		return 0, fmt.Errorf("pagetable: %d pages is not a subtree span", pages)
	}
}

// LinkSubtree points this table's interior entry covering va at the
// node that covers srcVA in src — the paper's Figure 3/8 mechanism.
// Both addresses must be aligned to the subtree span for the given
// level. The cost is a single entry write regardless of how many pages
// the subtree maps: this is what makes shared mapping O(1).
func (t *Table) LinkSubtree(cpu *sim.CPU, va mem.VirtAddr, src *Table, srcVA mem.VirtAddr, level int) error {
	if level < 2 || level >= t.levels+1 {
		return fmt.Errorf("pagetable: cannot link at level %d", level)
	}
	alignPages := span(level)
	if va.VPN()%alignPages != 0 || srcVA.VPN()%alignPages != 0 {
		return fmt.Errorf("pagetable: LinkSubtree addresses not aligned to level-%d span", level)
	}
	if err := t.checkVA(va); err != nil {
		return err
	}
	// A level-N interior entry points at a level-(N-1) node; that node
	// is the shared subtree.
	srcNode, err := src.subtreeNode(srcVA, level-1)
	if err != nil {
		return err
	}
	// Descend to the node holding the level-`level` entry.
	n := t.root
	for n.level > level {
		cpu.Advance(t.params.WalkLevelRef)
		idx := indexAt(va, n.level)
		e := &n.entries[idx]
		if !e.present {
			child, err := t.newNode(n.level - 1)
			if err != nil {
				return err
			}
			cpu.Advance(t.params.PTNodeAlloc)
			e.present = true
			e.child = child
			n.present++
			t.chargePTE(cpu)
		} else if e.huge {
			return fmt.Errorf("pagetable: va %#x covered by huge mapping", uint64(va))
		}
		n = e.child
	}
	e := &n.entries[indexAt(va, level)]
	if e.present {
		return fmt.Errorf("pagetable: va %#x already mapped", uint64(va))
	}
	srcNode.refs++
	t.gen++
	src.gen++
	e.present = true
	e.child = srcNode
	n.present++
	t.chargePTE(cpu)
	t.stats.Counter("subtree_links").Inc()
	t.mapped += srcPresentPages(srcNode)
	return nil
}

// subtreeNode returns the node covering va at the given level.
func (t *Table) subtreeNode(va mem.VirtAddr, level int) (*node, error) {
	if err := t.checkVA(va); err != nil {
		return nil, err
	}
	n := t.root
	for n.level > level {
		e := &n.entries[indexAt(va, n.level)]
		if !e.present || e.huge {
			return nil, fmt.Errorf("pagetable: no level-%d subtree at va %#x", level, uint64(va))
		}
		n = e.child
	}
	return n, nil
}

// srcPresentPages counts the pages currently mapped under a subtree
// (used only for the mapped-page gauge; not charged as simulated work).
func srcPresentPages(n *node) uint64 {
	if n.level == 1 {
		return uint64(n.present)
	}
	var total uint64
	for i := range n.entries {
		e := &n.entries[i]
		if !e.present {
			continue
		}
		if e.huge {
			total += span(n.level)
		} else {
			total += srcPresentPages(e.child)
		}
	}
	return total
}

// UnlinkSubtree removes a previously linked subtree entry covering va
// at the given level. Like LinkSubtree, the cost is a single entry
// write.
func (t *Table) UnlinkSubtree(cpu *sim.CPU, va mem.VirtAddr, level int) error {
	if err := t.checkVA(va); err != nil {
		return err
	}
	n := t.root
	for n.level > level {
		cpu.Advance(t.params.WalkLevelRef)
		e := &n.entries[indexAt(va, n.level)]
		if !e.present || e.huge {
			return fmt.Errorf("pagetable: no mapping at va %#x", uint64(va))
		}
		n = e.child
	}
	e := &n.entries[indexAt(va, level)]
	if !e.present || e.child == nil {
		return fmt.Errorf("pagetable: no subtree linked at va %#x level %d", uint64(va), level)
	}
	child := e.child
	t.mapped -= srcPresentPages(child)
	if err := t.freeNode(child); err != nil {
		return err
	}
	*e = entry{}
	n.present--
	t.chargePTE(cpu)
	t.stats.Counter("subtree_unlinks").Inc()
	// Prune intermediate nodes the link's installation created, so a
	// later link at a higher level finds the slot free.
	return t.pruneEmpty(cpu, t.root, va)
}

// pruneEmpty frees empty interior nodes along the path to va.
func (t *Table) pruneEmpty(cpu *sim.CPU, n *node, va mem.VirtAddr) error {
	if n.level == 1 {
		return nil
	}
	e := &n.entries[indexAt(va, n.level)]
	if !e.present || e.huge || e.child == nil {
		return nil
	}
	child := e.child
	if child.refs > 1 {
		return nil // shared: not ours to prune
	}
	if err := t.pruneEmpty(cpu, child, va); err != nil {
		return err
	}
	if child.present == 0 {
		if err := t.freeNode(child); err != nil {
			return err
		}
		*e = entry{}
		n.present--
		t.chargePTE(cpu)
	}
	return nil
}

// Destroy tears down the whole table, freeing every owned node. Frames
// of shared subtrees are freed only when their last owner destroys
// them.
func (t *Table) Destroy() error {
	if t.root == nil {
		return nil
	}
	if err := t.freeNode(t.root); err != nil {
		return err
	}
	t.root = nil
	t.mapped = 0
	return nil
}

// VisitLeaves calls fn for every present leaf mapping reachable from
// the root — including leaves inside shared (refs > 1) subtrees — with
// the mapping's virtual base address, first frame, span in 4 KiB
// pages, and flags. It charges no simulated time; invariant checkers
// use it to rebuild the full VA→frame relation of an address space.
func (t *Table) VisitLeaves(fn func(va mem.VirtAddr, frame mem.Frame, pages uint64, flags Flags)) {
	if t.root == nil {
		return
	}
	var walk func(n *node, base mem.VirtAddr)
	walk = func(n *node, base mem.VirtAddr) {
		step := mem.VirtAddr(span(n.level) * mem.FrameSize)
		for i := range n.entries {
			e := &n.entries[i]
			if !e.present {
				continue
			}
			va := base + mem.VirtAddr(i)*step
			if n.level == 1 || e.huge {
				fn(va, e.frame, span(n.level), e.flags)
			} else {
				walk(e.child, va)
			}
		}
	}
	walk(t.root, 0)
}

// CheckInvariants validates present-entry counts throughout the tree.
func (t *Table) CheckInvariants() error {
	if t.root == nil {
		return nil
	}
	return checkRec(t.root)
}

func checkRec(n *node) error {
	count := 0
	for i := range n.entries {
		e := &n.entries[i]
		if !e.present {
			if e.child != nil {
				return fmt.Errorf("pagetable: absent entry with child at level %d", n.level)
			}
			continue
		}
		count++
		if n.level > 1 && !e.huge {
			if e.child == nil {
				return fmt.Errorf("pagetable: interior present entry with nil child at level %d", n.level)
			}
			if e.child.level != n.level-1 {
				return fmt.Errorf("pagetable: child level %d under level %d", e.child.level, n.level)
			}
			if e.child.refs == 1 {
				if err := checkRec(e.child); err != nil {
					return err
				}
			}
		}
		if e.huge && (n.level < 2 || n.level > 3) {
			return fmt.Errorf("pagetable: huge entry at level %d", n.level)
		}
	}
	if count != n.present {
		return fmt.Errorf("pagetable: level-%d node has %d present entries, counter says %d", n.level, count, n.present)
	}
	return nil
}
