package pagetable

import (
	"testing"

	"repro/internal/buddy"
	"repro/internal/sim"
)

// TestPoolReleaseAdopt moves a destroyed table's node structs from one
// pool to another: the adopting pool's list is scrubbed, a table built
// on it allocates no fresh node structs, and the released pool panics
// on its next allocation instead of sharing a struct.
func TestPoolReleaseAdopt(t *testing.T) {
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	cpu := sim.MachineOf(clock, &params).BootCPU()
	newPool := func() *Pool {
		bud, err := buddy.New(clock, &params, 0, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		return NewPool(bud)
	}
	old := newPool()
	lifecycleCycle(t, cpu, &params, old, 16)
	held := len(old.spare)
	var s Spares
	old.Release(&s)
	if len(s.nodes) != held || len(old.spare) != 0 {
		t.Fatalf("released %d of %d spare nodes, %d left behind", len(s.nodes), held, len(old.spare))
	}
	if !mustPanic(func() { _, _ = old.alloc(1) }) {
		t.Fatal("a released pool allocated a node")
	}
	next := newPool()
	next.Adopt(&s)
	if len(s.nodes) != 0 || len(next.spare) != held {
		t.Fatalf("adopted %d nodes, %d left in the spares", len(next.spare), len(s.nodes))
	}
	if err := next.SpareScrubbed(); err != nil {
		t.Fatal(err)
	}
	lifecycleCycle(t, cpu, &params, next, 16)
	if len(next.spare) != held {
		t.Fatalf("a warm table lifecycle left %d spare nodes, want the %d adopted", len(next.spare), held)
	}
}

func mustPanic(fn func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fn()
	return false
}
