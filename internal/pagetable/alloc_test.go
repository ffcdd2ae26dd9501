package pagetable

import (
	"testing"

	"repro/internal/buddy"
	"repro/internal/mem"
	"repro/internal/sim"
)

// The page walk is the hottest loop of the page-granular experiments;
// it must not allocate host memory per simulated translation.
func TestWalkAllocFree(t *testing.T) {
	tbl, _, cpu := newTable(t, Levels4)
	va := mem.VirtAddr(0x7f0000001000)
	if err := tbl.Map(cpu, va, 1234, FlagRead|FlagWrite); err != nil {
		t.Fatalf("Map: %v", err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, _, ok := tbl.Walk(cpu, va); !ok {
			t.Fatal("walk missed a mapped page")
		}
	})
	if allocs != 0 {
		t.Fatalf("Walk allocates %v objects per translation, want 0", allocs)
	}
}

// Map/Unmap churn at a single address must run entirely off the
// pool's recycled nodes after the first cycle.
func TestMapUnmapChurnAllocFree(t *testing.T) {
	tbl, _, cpu := newTable(t, Levels4)
	va := mem.VirtAddr(0x7f0000001000)
	// Prime the pool's spare list with one full cycle.
	if err := tbl.Map(cpu, va, 1, FlagRead); err != nil {
		t.Fatalf("Map: %v", err)
	}
	if _, _, err := tbl.Unmap(cpu, va); err != nil {
		t.Fatalf("Unmap: %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := tbl.Map(cpu, va, 1, FlagRead); err != nil {
			t.Fatal(err)
		}
		if _, _, err := tbl.Unmap(cpu, va); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("map/unmap churn allocates %v objects per cycle, want 0", allocs)
	}
}

// lifecycleCycle builds a table on pool, maps one page into each of
// leaves leaf nodes, and destroys it: one address space's whole life.
func lifecycleCycle(tb testing.TB, cpu *sim.CPU, params *sim.Params, pool *Pool, leaves int) {
	tbl, err := New(cpu, params, pool, Levels4)
	if err != nil {
		tb.Fatal(err)
	}
	mapLeaves(tb, tbl, cpu, 0x40000000000, leaves)
	if err := tbl.Destroy(); err != nil {
		tb.Fatal(err)
	}
}

// Once a pool is warm, a table's whole lifecycle allocates the same
// host objects (the Table and its counters) however many nodes it
// spans: node structs come back from the pool that recycled them.
func TestTableLifecycleAllocsIndependentOfNodes(t *testing.T) {
	allocs := func(leaves int) float64 {
		tbl, _, cpu := newTable(t, Levels4)
		if err := tbl.Destroy(); err != nil {
			t.Fatal(err)
		}
		params := sim.DefaultParams()
		lifecycleCycle(t, cpu, &params, tbl.pool, leaves) // warm-up
		return testing.AllocsPerRun(20, func() {
			lifecycleCycle(t, cpu, &params, tbl.pool, leaves)
		})
	}
	small, large := allocs(2), allocs(16)
	if small != large {
		t.Fatalf("table lifecycle allocates %v objects over 2 leaf nodes but %v over 16", small, large)
	}
}

// BenchmarkTableLifecycle measures New -> map 16 leaf nodes -> Destroy
// on a warm pool, the page-table share of one tenant's life.
func BenchmarkTableLifecycle(b *testing.B) {
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	cpu := sim.MachineOf(clock, &params).BootCPU()
	bud, err := buddy.New(clock, &params, 0, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	pool := NewPool(bud)
	lifecycleCycle(b, cpu, &params, pool, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lifecycleCycle(b, cpu, &params, pool, 16)
	}
}
