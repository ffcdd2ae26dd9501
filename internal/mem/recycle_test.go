package mem

import (
	"testing"

	"repro/internal/sim"
)

// TestReleaseAdopt hands a used memory's storage to a new one: the
// adopter's pools are scrubbed and within their caps, it reads as a
// fresh memory and stays indistinguishable from one under the same
// writes, and the released memory panics instead of reading.
func TestReleaseAdopt(t *testing.T) {
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	cfg := Config{DRAMFrames: 1 << 16, NVMFrames: 1 << 16}
	newMem := func() *Memory {
		m, err := New(clock, &params, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	old := newMem()
	for f := Frame(0); f < 1<<17; f += 97 {
		old.WriteAt(f.Addr()+5, []byte{0xAA, byte(f)})
	}
	old.EraseRangeEpoch(0, 1<<12) // some arrays and leaves go to the spare pools
	var s Spares
	old.Release(&s)
	if len(s.frames) == 0 || len(s.leaves) == 0 || len(s.mids) == 0 {
		t.Fatalf("released %d frame arrays, %d leaves, %d mid nodes", len(s.frames), len(s.leaves), len(s.mids))
	}
	if !mustPanic(func() { readByte(old, Frame(97).Addr()+5) }) {
		t.Fatal("a released memory read a frame")
	}

	recycled, fresh := newMem(), newMem()
	recycled.Adopt(&s)
	if len(s.frames)+len(s.leaves)+len(s.mids) != 0 {
		t.Fatal("Adopt left parts behind")
	}
	if len(recycled.spare) > maxSpareFrames || len(recycled.spareLeaves) > maxSpareLeaves || len(recycled.spareMids) > len(recycled.dir) {
		t.Fatalf("adopted pools over their caps: %d arrays, %d leaves, %d mid nodes",
			len(recycled.spare), len(recycled.spareLeaves), len(recycled.spareMids))
	}
	if err := recycled.SpareScrubbed(); err != nil {
		t.Fatal(err)
	}
	if recycled.MaterializedFrames() != 0 || recycled.ContentChecksum() != fresh.ContentChecksum() {
		t.Fatal("an adopting memory does not read as a fresh one")
	}
	for _, m := range []*Memory{recycled, fresh} {
		for f := Frame(3); f < 1<<17; f += 131 {
			m.WriteAt(f.Addr()+1, []byte{byte(f >> 3)})
		}
	}
	if a, b := recycled.ContentChecksum(), fresh.ContentChecksum(); a != b {
		t.Fatalf("checksum %#x on adopted storage, %#x on fresh", a, b)
	}
	if err := recycled.SpareScrubbed(); err != nil {
		t.Fatal(err)
	}
}

// TestSpareScrubbedDetectsDirtyLeaf is the negative control for the
// leaf half of SpareScrubbed.
func TestSpareScrubbedDetectsDirtyLeaf(t *testing.T) {
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	m, err := New(clock, &params, Config{DRAMFrames: 64})
	if err != nil {
		t.Fatal(err)
	}
	l := &storeLeaf{mat: 1}
	m.spareLeaves = append(m.spareLeaves, l)
	if err := m.SpareScrubbed(); err == nil {
		t.Fatal("a spare leaf with a materialized bit went undetected")
	}
}

func mustPanic(fn func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fn()
	return false
}
