package mem

import (
	"math/rand"
	"slices"
	"testing"
)

// TestFrameTableMatchesMap drives random sets and clears over unaligned
// ranges and compares Get and Visit with a map.
func TestFrameTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := Frame(rng.Intn(1 << 14))
		count := 1 + uint64(rng.Intn(20000))
		tab, err := NewFrameTable[uint32](base, count)
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[Frame]uint32)
		for step := 0; step < 2000; step++ {
			f := base + Frame(rng.Int63n(int64(count)))
			if rng.Intn(8) == 0 {
				// Bias towards the aligned frames the upper levels hold.
				f &^= Frame(1)<<(6*(1+rng.Intn(2))) - 1
				if f < base {
					continue
				}
			}
			v := uint32(rng.Intn(3))
			tab.Set(f, v)
			if v == 0 {
				delete(want, f)
			} else {
				want[f] = v
			}
			if got := tab.Get(f); got != v {
				t.Fatalf("seed %d: Get(%d) = %d after Set %d", seed, f, got, v)
			}
		}
		var frames []Frame
		tab.Visit(func(f Frame, v uint32) bool {
			if want[f] != v {
				t.Fatalf("seed %d: Visit reports %d at frame %d, want %d", seed, v, f, want[f])
			}
			frames = append(frames, f)
			return true
		})
		if len(frames) != len(want) || !slices.IsSorted(frames) {
			t.Fatalf("seed %d: Visit saw %d frames (sorted %v), want %d", seed, len(frames), slices.IsSorted(frames), len(want))
		}
	}
}

// TestFrameTablePlacement checks the alignment-level placement: an
// entry at a frame aligned to 4,096 lives in the directory, one aligned
// to 64 in a mid node without a leaf, and any other in a leaf.
func TestFrameTablePlacement(t *testing.T) {
	tab, err := NewFrameTable[*int](4096+100, 3*4096) // directory entries from 4096
	if err != nil {
		t.Fatal(err)
	}
	v := new(int)
	tab.Set(8192, v)
	if tab.dir[1].mid != nil {
		t.Fatal("directory-aligned entry allocated a mid node")
	}
	tab.Set(8192+64, v)
	if m := tab.dir[1].mid; m == nil || m.leaf[1] != nil {
		t.Fatal("64-aligned entry did not stop at the mid node")
	}
	tab.Set(8192+65, v)
	if tab.dir[1].mid.leaf[1] == nil {
		t.Fatal("unaligned entry has no leaf")
	}
	tab.Set(4096+100, v) // the first frame, unaligned
	if m := tab.dir[0].mid; m == nil || m.leaf[1] == nil {
		t.Fatal("first frame has no leaf")
	}
	for _, f := range []Frame{8192, 8192 + 64, 8192 + 65, 4096 + 100} {
		if tab.Get(f) != v {
			t.Fatalf("frame %d lost its entry", f)
		}
	}
}

// TestFrameTableRange checks the range: reads outside it see no entry,
// clears outside it are no-ops, and writes outside it panic.
func TestFrameTableRange(t *testing.T) {
	tab, err := NewFrameTable[uint8](100, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []Frame{0, 99, 150, 4095, 4096} {
		if tab.Get(f) != 0 {
			t.Errorf("frame %d outside [100, 150) reads as present", f)
		}
		tab.Set(f, 0)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("write of frame %d outside [100, 150) accepted", f)
				}
			}()
			tab.Set(f, 1)
		}()
	}
	for _, c := range []struct {
		base  Frame
		count uint64
	}{{0, 0}, {0, MaxTableFrames + 1}, {^Frame(0) - 10, 20}} {
		if _, err := NewFrameTable[uint8](c.base, c.count); err == nil {
			t.Errorf("NewFrameTable(%d, %d) accepted", c.base, c.count)
		}
	}
}

// TestFrameTableSteadyStateAllocs: once a frame's levels exist, setting
// and clearing it allocates nothing.
func TestFrameTableSteadyStateAllocs(t *testing.T) {
	tab, err := NewFrameTable[uint64](0, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	for f := Frame(0); f < 1<<16; f += 7 {
		tab.Set(f, 1)
	}
	allocs := testing.AllocsPerRun(10, func() {
		for f := Frame(0); f < 1<<16; f += 7 {
			tab.Set(f, 0)
			tab.Set(f, uint64(f)+1)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per sweep, want 0", allocs)
	}
}
