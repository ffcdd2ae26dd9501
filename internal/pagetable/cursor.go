package pagetable

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
)

// leafNodeBytes is the span of virtual memory one level-1 node maps.
const leafNodeBytes = EntriesPerNode * mem.FrameSize

// Cursor is a position in one table. It remembers the last level-1
// node a descent reached, with the nodes above it, so a run of
// operations on neighbouring pages touches one entry each instead of
// descending from the root every time. A cursor is a plain value made
// by Table.Cursor; it allocates nothing.
//
// The cache is a host shortcut only. Each operation charges exactly
// what the same operation through the Table method charges, because
// those methods are the same code run on a fresh cursor: a hit
// charges the walk references of the levels it skips as if it had
// walked them.
//
// A cached path is dropped whenever the table's shape may have
// changed under it: every node free and every LinkSubtree (on both
// tables) bumps the table's generation, and a cursor whose generation
// differs descends from the root again. A path through a node with
// more than one owner is never cached, so the shared-subtree errors
// fire on every call as they do on a fresh descent. Only the
// modifying descents and Next fill the cache; Lookup only reads it.
type Cursor struct {
	t    *Table
	gen  uint64
	base mem.VirtAddr // first address path[1] maps
	// path[l] is the level-l node on the path to base; the cache is
	// valid only while path[1] is set and gen matches the table's.
	path [Levels5 + 1]*node
}

// Cursor returns a cursor over t with nothing cached.
func (t *Table) Cursor() Cursor { return Cursor{t: t} }

// hit reports whether the cached level-1 node maps va and is current.
func (c *Cursor) hit(va mem.VirtAddr) bool {
	return c.path[1] != nil && c.gen == c.t.gen && va&^(leafNodeBytes-1) == c.base
}

// keep caches path[1], the level-1 node an unshared descent toward va
// just reached.
func (c *Cursor) keep(va mem.VirtAddr) {
	c.gen = c.t.gen
	c.base = va &^ (leafNodeBytes - 1)
}

// resume returns the node a modifying descent toward va's 4 KiB entry
// starts from and the walk references of the levels above it: the
// cached level-1 node, or the root with the cache dropped.
func (c *Cursor) resume(va mem.VirtAddr) (*node, int) {
	if c.hit(va) {
		return c.path[1], c.t.levels - 1
	}
	return c.restart(), 0
}

// restart drops the cache and returns the root, recorded as the top
// of the path.
func (c *Cursor) restart() *node {
	c.path[1] = nil
	c.path[c.t.levels] = c.t.root
	return c.t.root
}

// Lookup is Walk without charging virtual time or counters; it is the
// assertion/debug path and the baseline's "already present?" probe.
// It reads through the cached level-1 node when that maps va; a miss
// takes the table's uncharged descent and caches nothing.
func (c *Cursor) Lookup(va mem.VirtAddr) (pa mem.PhysAddr, flags Flags, ok bool) {
	var e *entry
	level := 1
	if c.hit(va) {
		e = &c.path[1].entries[indexAt(va, 1)]
		if !e.present {
			return 0, 0, false
		}
	} else if e, level, _ = c.t.descend(va); e == nil {
		return 0, 0, false
	}
	return leafAddr(e, level, va), e.flags, true
}

// Map installs a 4 KiB mapping va -> frame, as Table.Map does.
func (c *Cursor) Map(cpu *sim.CPU, va mem.VirtAddr, frame mem.Frame, flags Flags) error {
	return c.mapAt(cpu, va, frame, flags, 1)
}

// mapAt installs a leaf at leafLevel, creating intermediate nodes as
// needed. It charges one walk reference per interior level, one PTE
// write per entry written and each node's allocation, in one Advance.
func (c *Cursor) mapAt(cpu *sim.CPU, va mem.VirtAddr, frame mem.Frame, flags Flags, leafLevel int) error {
	t := c.t
	if err := t.checkVA(va); err != nil {
		return err
	}
	var n *node
	var refs int
	if leafLevel == 1 {
		n, refs = c.resume(va)
	} else {
		n = c.restart()
	}
	var d sim.Time
	for n.level > leafLevel {
		refs++
		e := &n.entries[indexAt(va, n.level)]
		if e.present && e.huge {
			cpu.Advance(d + sim.Time(refs)*t.params.WalkLevelRef)
			return fmt.Errorf("pagetable: va %#x already covered by a level-%d huge mapping", uint64(va), n.level)
		}
		if !e.present {
			child, err := t.newNode(n.level - 1)
			if err != nil {
				cpu.Advance(d + sim.Time(refs)*t.params.WalkLevelRef)
				return err
			}
			e.present = true
			e.child = child
			n.present++
			d += t.params.PTNodeAlloc + t.params.PTEWrite
			t.cPTEWrites.Inc()
		}
		if e.child.refs > 1 {
			cpu.Advance(d + sim.Time(refs)*t.params.WalkLevelRef)
			return fmt.Errorf("pagetable: va %#x lies in a shared subtree; unlink before modifying", uint64(va))
		}
		n = e.child
		c.path[n.level] = n
		if n.level == 1 {
			c.keep(va)
		}
	}
	d += sim.Time(refs) * t.params.WalkLevelRef
	e := &n.entries[indexAt(va, leafLevel)]
	if e.present {
		cpu.Advance(d)
		return fmt.Errorf("pagetable: va %#x already mapped", uint64(va))
	}
	e.present = true
	e.huge = leafLevel > 1
	e.frame = frame
	e.flags = flags
	e.child = nil
	n.present++
	cpu.Advance(d + t.params.PTEWrite)
	t.cPTEWrites.Inc()
	t.mapped += span(leafLevel)
	return nil
}

// toLeaf descends toward the leaf covering va, from the cached node
// when it maps va, and returns the node holding the leaf entry and the
// entry, with the levels referenced. A nil entry means the descent
// stopped at an absent entry or, when shared is set, above a shared
// subtree; refs then counts the level it stopped at.
func (c *Cursor) toLeaf(va mem.VirtAddr) (n *node, e *entry, refs int, shared bool) {
	n, refs = c.resume(va)
	for {
		refs++
		e = &n.entries[indexAt(va, n.level)]
		if !e.present {
			return n, nil, refs, false
		}
		if n.level == 1 || e.huge {
			return n, e, refs, false
		}
		if e.child.refs > 1 {
			return n, nil, refs, true
		}
		n = e.child
		c.path[n.level] = n
		if n.level == 1 {
			c.keep(va)
		}
	}
}

// Protect rewrites the flags of the mapping covering va, as
// Table.Protect does.
func (c *Cursor) Protect(cpu *sim.CPU, va mem.VirtAddr, flags Flags) error {
	t := c.t
	if err := t.checkVA(va); err != nil {
		return err
	}
	_, e, refs, shared := c.toLeaf(va)
	d := sim.Time(refs) * t.params.WalkLevelRef
	switch {
	case shared:
		cpu.Advance(d)
		return fmt.Errorf("pagetable: va %#x lies in a shared subtree", uint64(va))
	case e == nil:
		cpu.Advance(d)
		return fmt.Errorf("pagetable: protect of unmapped va %#x", uint64(va))
	}
	e.flags = flags
	cpu.Advance(d + t.params.PTEWrite)
	t.cPTEWrites.Inc()
	return nil
}

// unmap removes the mapping covering va, as Table.Unmap does. The
// nodes it empties are freed, lowest first, before it returns.
func (c *Cursor) unmap(cpu *sim.CPU, va mem.VirtAddr) (mem.Frame, uint64, error) {
	t := c.t
	if err := t.checkVA(va); err != nil {
		return 0, 0, err
	}
	n, e, refs, shared := c.toLeaf(va)
	d := sim.Time(refs) * t.params.WalkLevelRef
	switch {
	case shared:
		cpu.Advance(d)
		return 0, 0, fmt.Errorf("pagetable: va %#x lies in a shared subtree; use UnlinkSubtree", uint64(va))
	case e == nil:
		cpu.Advance(d)
		return 0, 0, fmt.Errorf("pagetable: va %#x not mapped", uint64(va))
	}
	frame, pages := e.frame, span(n.level)
	*e = entry{}
	n.present--
	d += t.params.PTEWrite
	t.cPTEWrites.Inc()
	// Free the nodes this emptied, as free_pgtables() does, each with
	// the write that clears its parent's entry.
	for l := n.level; l < t.levels && c.path[l].present == 0; l++ {
		if err := t.freeNode(c.path[l]); err != nil {
			cpu.Advance(d)
			return 0, 0, err
		}
		parent := c.path[l+1]
		parent.entries[indexAt(va, l+1)] = entry{}
		parent.present--
		d += t.params.PTEWrite
		t.cPTEWrites.Inc()
	}
	cpu.Advance(d)
	t.mapped -= pages
	return frame, pages, nil
}

// Next returns the first address in [va, end) covered by a present
// leaf: va itself when its own entry is present, else the first
// address of the next present entry. An absent entry is skipped as a
// whole, so the host work is proportional to the entries visited, not
// to the pages in the range. Like Lookup, it charges nothing.
func (c *Cursor) Next(va, end mem.VirtAddr) (mem.VirtAddr, bool) {
	if va >= end {
		return 0, false
	}
	if c.hit(va) {
		n := c.path[1]
		for i := indexAt(va, 1); ; i++ {
			if n.entries[i].present {
				return va, true
			}
			va = va&^(mem.FrameSize-1) + mem.FrameSize
			if va >= end {
				return 0, false
			}
			if i == EntriesPerNode-1 {
				break
			}
		}
	}
	if va >= c.t.MaxVirt() {
		return 0, false
	}
	return c.seek(c.restart(), va, end, false)
}

// seek scans n's entries from the one covering va. Past the first
// entry va sits on an entry boundary, so a descent into a child starts
// at the child's first entry. The path is recorded as the search
// unwinds from a hit, and a level-1 hit off any shared subtree becomes
// the cached node.
func (c *Cursor) seek(n *node, va, end mem.VirtAddr, shared bool) (mem.VirtAddr, bool) {
	step := mem.VirtAddr(span(n.level) * mem.FrameSize)
	for i := indexAt(va, n.level); i < EntriesPerNode && va < end; i++ {
		if e := &n.entries[i]; e.present {
			if n.level == 1 || e.huge {
				if n.level == 1 && !shared {
					c.path[1] = n
					c.keep(va)
				}
				return va, true
			}
			if got, ok := c.seek(e.child, va, end, shared || e.child.refs > 1); ok {
				c.path[n.level] = n
				return got, true
			}
		}
		va = va&^(step-1) + step
	}
	return 0, false
}

// UnmapRange unmaps every present leaf that covers an address in
// [va, end), in address order, and hands each to fn with the address
// it was found at (as Next reports it), its first frame and its span
// in 4 KiB pages. Each leaf costs exactly what Unmap charges for it,
// and the nodes it empties are freed before fn sees the page, so fn
// allocates from the same buddy state a per-page loop would leave.
// Addresses a leaf covers past its found address are not revisited.
func (c *Cursor) UnmapRange(cpu *sim.CPU, va, end mem.VirtAddr, fn func(va mem.VirtAddr, frame mem.Frame, pages uint64) error) error {
	for {
		var ok bool
		if va, ok = c.Next(va, end); !ok {
			return nil
		}
		frame, pages, err := c.unmap(cpu, va)
		if err != nil {
			return err
		}
		if err := fn(va, frame, pages); err != nil {
			return err
		}
		va += mem.VirtAddr(pages * mem.FrameSize)
	}
}
