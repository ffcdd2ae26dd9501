package pagetable

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
)

// The functions below are the per-page operations as they were before
// Cursor: every call descends from the root. They are kept only as the
// oracle that TestCursorMatchesPerPageCalls runs the cursor against,
// on a twin table.

func refMapEntry(t *Table, cpu *sim.CPU, va mem.VirtAddr, frame mem.Frame, flags Flags, leafLevel int) error {
	if err := t.checkVA(va); err != nil {
		return err
	}
	n := t.root
	for n.level > leafLevel {
		cpu.Advance(t.params.WalkLevelRef)
		idx := indexAt(va, n.level)
		e := &n.entries[idx]
		if e.present && e.huge {
			return fmt.Errorf("pagetable: va %#x already covered by a level-%d huge mapping", uint64(va), n.level)
		}
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
		}
		if e.child.refs > 1 {
			return fmt.Errorf("pagetable: va %#x lies in a shared subtree; unlink before modifying", uint64(va))
		}
		n = e.child
	}
	e := &n.entries[indexAt(va, leafLevel)]
	if e.present {
		return fmt.Errorf("pagetable: va %#x already mapped", uint64(va))
	}
	e.present = true
	e.huge = leafLevel > 1
	e.frame = frame
	e.flags = flags
	e.child = nil
	n.present++
	t.chargePTE(cpu)
	t.mapped += span(leafLevel)
	return nil
}

func refUnmap(t *Table, cpu *sim.CPU, va mem.VirtAddr) (mem.Frame, uint64, error) {
	if err := t.checkVA(va); err != nil {
		return 0, 0, err
	}
	frame, pages, err := refUnmapRec(t, cpu, t.root, va)
	if err != nil {
		return 0, 0, err
	}
	t.mapped -= pages
	return frame, pages, nil
}

func refUnmapRec(t *Table, cpu *sim.CPU, n *node, va mem.VirtAddr) (mem.Frame, uint64, error) {
	cpu.Advance(t.params.WalkLevelRef)
	e := &n.entries[indexAt(va, n.level)]
	if !e.present {
		return 0, 0, fmt.Errorf("pagetable: va %#x not mapped", uint64(va))
	}
	if n.level == 1 || e.huge {
		frame := e.frame
		pages := span(n.level)
		*e = entry{}
		n.present--
		t.chargePTE(cpu)
		return frame, pages, nil
	}
	child := e.child
	if child.refs > 1 {
		return 0, 0, fmt.Errorf("pagetable: va %#x lies in a shared subtree; use UnlinkSubtree", uint64(va))
	}
	frame, pages, err := refUnmapRec(t, cpu, child, va)
	if err != nil {
		return 0, 0, err
	}
	if child.present == 0 {
		if err := t.freeNode(child); err != nil {
			return 0, 0, err
		}
		*e = entry{}
		n.present--
		t.chargePTE(cpu)
	}
	return frame, pages, nil
}

func refProtect(t *Table, cpu *sim.CPU, va mem.VirtAddr, flags Flags) error {
	if err := t.checkVA(va); err != nil {
		return err
	}
	n := t.root
	for {
		cpu.Advance(t.params.WalkLevelRef)
		e := &n.entries[indexAt(va, n.level)]
		if !e.present {
			return fmt.Errorf("pagetable: protect of unmapped va %#x", uint64(va))
		}
		if n.level == 1 || e.huge {
			e.flags = flags
			t.chargePTE(cpu)
			return nil
		}
		if e.child.refs > 1 {
			return fmt.Errorf("pagetable: va %#x lies in a shared subtree", uint64(va))
		}
		n = e.child
	}
}

func refLookup(t *Table, va mem.VirtAddr) (mem.PhysAddr, Flags, bool) {
	if va >= t.MaxVirt() {
		return 0, 0, false
	}
	n := t.root
	for {
		e := &n.entries[indexAt(va, n.level)]
		if !e.present {
			return 0, 0, false
		}
		if n.level == 1 || e.huge {
			return leafAddr(e, n.level, va), e.flags, true
		}
		n = e.child
	}
}

func refNextPresent(t *Table, va, end mem.VirtAddr) mem.VirtAddr {
	if va >= end || va >= t.MaxVirt() {
		return end
	}
	if got, ok := refNextPresentIn(t.root, va, end); ok {
		return got
	}
	return end
}

func refNextPresentIn(n *node, va, end mem.VirtAddr) (mem.VirtAddr, bool) {
	step := mem.VirtAddr(span(n.level) * mem.FrameSize)
	for i := indexAt(va, n.level); i < EntriesPerNode && va < end; i++ {
		if e := &n.entries[i]; e.present {
			if n.level == 1 || e.huge {
				return va, true
			}
			if got, ok := refNextPresentIn(e.child, va, end); ok {
				return got, true
			}
		}
		va = va&^(step-1) + step
	}
	return 0, false
}
