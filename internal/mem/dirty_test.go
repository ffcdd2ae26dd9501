package mem

import (
	"reflect"
	"testing"
)

func TestDirtyTrackingOffByDefault(t *testing.T) {
	m, _, _ := newTestMemory(t)
	if m.tracking.Load() {
		t.Fatal("tracking on by default")
	}
	m.WriteAt(Frame(3).Addr(), []byte{0xaa})
	if n := int(m.dirtyN.Load()); n != 0 {
		t.Fatalf("DirtyCount = %d with tracking off", n)
	}
	if fr := m.DirtyFrames(); len(fr) != 0 {
		t.Fatalf("DirtyFrames = %v with tracking off", fr)
	}
}

func TestDirtyTrackingWritesAndDrops(t *testing.T) {
	m, _, _ := newTestMemory(t)
	// Content present before the epoch starts is not dirty.
	m.WriteAt(Frame(1).Addr(), []byte{0x11})
	m.SetDirtyTracking(true)
	if !m.tracking.Load() {
		t.Fatal("tracking did not turn on")
	}
	if n := int(m.dirtyN.Load()); n != 0 {
		t.Fatalf("DirtyCount = %d right after enabling", n)
	}

	// A write dirties its frame, including rewrites of materialized
	// frames and multi-frame spans.
	m.WriteAt(Frame(1).Addr(), []byte{0x22})
	buf := make([]byte, 2*FrameSize)
	m.WriteAt(Frame(5).Addr(), buf)
	// Reads do not dirty.
	readByte(m, Frame(9).Addr())
	want := []Frame{1, 5, 6}
	if got := m.DirtyFrames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("DirtyFrames = %v, want %v", got, want)
	}

	// Zeroing a materialized frame dirties it; erasing a huge range of
	// absent frames dirties nothing extra.
	m.ResetDirty()
	m.ZeroFrames(1, 1)
	m.EraseRangeEpoch(100, 900)
	if got := m.DirtyFrames(); !reflect.DeepEqual(got, []Frame{1}) {
		t.Fatalf("DirtyFrames after erase = %v, want [1]", got)
	}

	// Copies dirty the destination (and, via drop, destinations whose
	// source reads as zero).
	m.ResetDirty()
	m.WriteAt(Frame(20).Addr(), []byte{0x33})
	m.ResetDirty()
	m.copyFrames(m.clock, 30, 20, 1) // materialized source
	m.WriteAt(Frame(31).Addr(), []byte{1})
	m.ResetDirty()
	m.copyFrames(m.clock, 31, 40, 1) // absent source: 31 drops to zero
	if got := m.DirtyFrames(); !reflect.DeepEqual(got, []Frame{31}) {
		t.Fatalf("DirtyFrames after zero-copy = %v, want [31]", got)
	}

	m.SetDirtyTracking(false)
	if m.tracking.Load() {
		t.Fatal("tracking did not turn off")
	}
}

func TestDirtyTrackingCrashDirtiesDRAMOnly(t *testing.T) {
	m, _, _ := newTestMemory(t)
	dram, _ := m.Region(DRAM)
	nvm, _ := m.Region(NVM)
	m.SetDirtyTracking(true)
	m.WriteAt(dram.Start.Addr(), []byte{1})
	m.WriteAt(nvm.Start.Addr(), []byte{2})
	m.ResetDirty()
	m.Crash()
	if got := m.DirtyFrames(); !reflect.DeepEqual(got, []Frame{dram.Start}) {
		t.Fatalf("DirtyFrames after crash = %v, want [%d]", got, dram.Start)
	}
}

func TestMaterializedFrameList(t *testing.T) {
	m, _, _ := newTestMemory(t)
	if got := m.MaterializedFrameList(); len(got) != 0 {
		t.Fatalf("MaterializedFrameList = %v on fresh memory", got)
	}
	m.WriteAt(Frame(7).Addr(), []byte{1})
	m.WriteAt(Frame(2).Addr(), []byte{1})
	readByte(m, Frame(9).Addr()) // reads do not materialize
	if got := m.MaterializedFrameList(); !reflect.DeepEqual(got, []Frame{2, 7}) {
		t.Fatalf("MaterializedFrameList = %v, want [2 7]", got)
	}
}
