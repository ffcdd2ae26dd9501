package pagetable

import (
	"slices"
	"testing"

	"repro/internal/buddy"
	"repro/internal/mem"
	"repro/internal/sim"
)

// TestFreedNodesAreScrubbed maps and unmaps enough to churn node
// structs through the table's pool, then asserts every recycled node is
// fully zeroed — a spare retaining entries would leak frame numbers
// and flags into its next table.
func TestFreedNodesAreScrubbed(t *testing.T) {
	tbl, _, cpu := newTable(t, Levels4)
	base := mem.VirtAddr(0x40000000000)
	for p := uint64(0); p < 64; p++ {
		if err := tbl.Map(cpu, base+mem.VirtAddr(p*mem.FrameSize), mem.Frame(100+p), FlagRead|FlagWrite); err != nil {
			t.Fatal(err)
		}
	}
	for p := uint64(0); p < 64; p++ {
		if _, _, err := tbl.Unmap(cpu, base+mem.VirtAddr(p*mem.FrameSize)); err != nil {
			t.Fatal(err)
		}
	}
	if len(tbl.pool.spare) == 0 {
		t.Fatal("unmap recycled no nodes")
	}
	if err := tbl.pool.SpareScrubbed(); err != nil {
		t.Fatalf("recycled node not scrubbed: %v", err)
	}
}

// TestSpareScrubbedDetectsPoison is the negative control.
func TestSpareScrubbedDetectsPoison(t *testing.T) {
	tbl, _, _ := newTable(t, Levels4)
	poisoned := &node{level: 2, present: 1}
	poisoned.entries[17] = entry{frame: 99}
	tbl.pool.spare = append(tbl.pool.spare, poisoned)
	if err := tbl.pool.SpareScrubbed(); err == nil {
		t.Fatal("poisoned spare node went undetected")
	}
	tbl.pool.spare = []*node{{frame: 7}}
	if err := tbl.pool.SpareScrubbed(); err == nil {
		t.Fatal("spare node with a stale frame went undetected")
	}
}

// mapLeaves maps one page in each of leaves consecutive 2 MiB regions
// starting at base, so the mapping spans exactly leaves leaf nodes.
func mapLeaves(t testing.TB, tbl *Table, cpu *sim.CPU, base mem.VirtAddr, leaves int) {
	t.Helper()
	for i := 0; i < leaves; i++ {
		va := base + mem.VirtAddr(uint64(i)*mem.HugeFrames2M*mem.FrameSize)
		if err := tbl.Map(cpu, va, mem.Frame(1000+i), FlagRead|FlagWrite); err != nil {
			t.Fatal(err)
		}
	}
}

// tableNodes returns every node reachable from tbl's root, each with
// the level its position in the tree implies.
func tableNodes(tbl *Table) map[*node]int {
	nodes := make(map[*node]int)
	var walk func(n *node, level int)
	walk = func(n *node, level int) {
		nodes[n] = level
		if level == 1 {
			return
		}
		for i := range n.entries {
			if e := &n.entries[i]; e.present && !e.huge {
				walk(e.child, level-1)
			}
		}
	}
	walk(tbl.root, tbl.levels)
	return nodes
}

// TestDestroyedNodesReusedAcrossTables destroys one table and builds
// the next on the same pool: every node of the new table must be a
// recycled struct that arrives zeroed, with its own level, a frame
// freshly drawn from the allocator and a single reference.
func TestDestroyedNodesReusedAcrossTables(t *testing.T) {
	first, bud, cpu := newTable(t, Levels4)
	pool := first.pool
	base := mem.VirtAddr(0x40000000000)
	mapLeaves(t, first, cpu, base, 2)
	built := first.Nodes()
	if err := first.Destroy(); err != nil {
		t.Fatal(err)
	}
	if len(pool.spare) != built {
		t.Fatalf("pool holds %d spare nodes after destroying a %d-node table", len(pool.spare), built)
	}
	recycled := make(map[*node]bool)
	for _, n := range pool.spare {
		recycled[n] = true
	}

	free := bud.FreeFrames()
	params := sim.DefaultParams()
	second, err := New(cpu, &params, pool, Levels4)
	if err != nil {
		t.Fatal(err)
	}
	if second.root.present != 0 || second.root.entries != ([EntriesPerNode]entry{}) {
		t.Fatal("recycled root arrived with entries from its previous table")
	}
	mapLeaves(t, second, cpu, base+mem.VirtAddr(1<<30), 2)
	if err := second.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	leaves := 0
	second.VisitLeaves(func(mem.VirtAddr, mem.Frame, uint64, Flags) { leaves++ })
	if leaves != 2 {
		t.Fatalf("second table reports %d leaves, want 2 (stale entries survived recycling)", leaves)
	}

	nodes := tableNodes(second)
	if len(nodes) != built {
		t.Fatalf("second table has %d nodes, want %d", len(nodes), built)
	}
	if drawn := free - bud.FreeFrames(); drawn != uint64(built) {
		t.Fatalf("second table drew %d frames, want %d", drawn, built)
	}
	frames := make(map[mem.Frame]bool)
	for n, level := range nodes {
		if !recycled[n] {
			t.Fatalf("level-%d node is a fresh host allocation, not a recycled one", level)
		}
		if n.level != level || n.refs != 1 {
			t.Fatalf("recycled node has level=%d refs=%d, want level=%d refs=1", n.level, n.refs, level)
		}
		if frames[n.frame] || !bud.Contains(n.frame, 1) {
			t.Fatalf("recycled node carries frame %d, not a distinct frame of its allocator", n.frame)
		}
		frames[n.frame] = true
	}
	if len(pool.spare) != 0 {
		t.Fatalf("%d spare nodes left after rebuilding the same shape", len(pool.spare))
	}
}

// TestPoolsNeverExchangeNodes churns tables on two pools over disjoint
// allocators: a node freed into one pool must never back a table of
// the other, and each table's frames stay inside its own allocator.
func TestPoolsNeverExchangeNodes(t *testing.T) {
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	cpu := sim.MachineOf(clock, &params).BootCPU()
	budA, err := buddy.New(clock, &params, 0, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	budB, err := buddy.New(clock, &params, 1<<16, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	poolA, poolB := NewPool(budA), NewPool(budB)
	base := mem.VirtAddr(0x40000000000)

	churn := func(pool *Pool, bud *buddy.Allocator) map[*node]int {
		tbl, err := New(cpu, &params, pool, Levels4)
		if err != nil {
			t.Fatal(err)
		}
		mapLeaves(t, tbl, cpu, base, 3)
		nodes := tableNodes(tbl)
		for n := range nodes {
			if !bud.Contains(n.frame, 1) {
				t.Fatalf("node frame %d lies outside its pool's allocator", n.frame)
			}
		}
		if err := tbl.Destroy(); err != nil {
			t.Fatal(err)
		}
		return nodes
	}

	nodesA := churn(poolA, budA)
	spareA := append([]*node(nil), poolA.spare...)
	nodesB := churn(poolB, budB)
	for n := range nodesB {
		if _, ok := nodesA[n]; ok {
			t.Fatal("pool B built a table from a node pool A recycled")
		}
	}
	if !slices.Equal(poolA.spare, spareA) {
		t.Fatal("pool A spare list changed while only pool B was used")
	}
	if budA.FreeFrames() != 1<<16 || budB.FreeFrames() != 1<<16 {
		t.Fatalf("frames leaked: A free=%d B free=%d, want %d each", budA.FreeFrames(), budB.FreeFrames(), 1<<16)
	}
}
