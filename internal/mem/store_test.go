package mem

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/sim"
)

// checkStore verifies the frame store's structure by a full scan that
// ignores the presence bitmaps: each bitmap bit is set exactly where a
// level is linked, each leaf's mat word matches its linked arrays, the
// materialized and dirty counts match the leaves, and — when unlinked
// is set — no linked leaf is empty.
func checkStore(m *Memory, unlinked bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	frames, dirty := 0, 0
	for d := range m.dir {
		mid := m.dir[d].Load()
		if got := m.present[d>>6]>>(d&63)&1 == 1; got != (mid != nil) {
			return fmt.Errorf("directory entry %d: presence bit %v, linked %v", d, got, mid != nil)
		}
		if mid == nil {
			continue
		}
		for j := range mid.leaves {
			l := mid.leaves[j].Load()
			if got := mid.present[j>>6]>>(j&63)&1 == 1; got != (l != nil) {
				return fmt.Errorf("mid %d leaf %d: presence bit %v, linked %v", d, j, got, l != nil)
			}
			if l == nil {
				continue
			}
			var mat uint64
			for k := range l.frames {
				if l.frames[k].Load() != nil {
					mat |= 1 << k
				}
			}
			if mat != l.mat {
				return fmt.Errorf("mid %d leaf %d: mat %#x, linked arrays %#x", d, j, l.mat, mat)
			}
			if unlinked && mat == 0 && l.dirty.Load() == 0 {
				return fmt.Errorf("mid %d leaf %d is empty but linked", d, j)
			}
			frames += bits.OnesCount64(mat)
			dirty += bits.OnesCount64(l.dirty.Load())
		}
	}
	if frames != m.nFrames {
		return fmt.Errorf("%d frames linked, count says %d", frames, m.nFrames)
	}
	if int64(dirty) != m.dirtyN.Load() {
		return fmt.Errorf("%d dirty bits set, count says %d", dirty, m.dirtyN.Load())
	}
	if !m.tracking.Load() && dirty != 0 {
		return fmt.Errorf("%d dirty bits set with tracking off", dirty)
	}
	for _, l := range m.spareLeaves {
		if l.mat != 0 || l.dirty.Load() != 0 {
			return fmt.Errorf("spare leaf holds mat %#x dirty %#x", l.mat, l.dirty.Load())
		}
		for k := range l.frames {
			if l.frames[k].Load() != nil {
				return fmt.Errorf("spare leaf holds a frame in slot %d", k)
			}
		}
	}
	return nil
}

// TestEmptiedLeavesAreRecycled: a leaf emptied outside a host-parallel
// phase goes back to the spare-leaf pool, and the next materialization
// anywhere takes it from there.
func TestEmptiedLeavesAreRecycled(t *testing.T) {
	m, _, _ := newTestMemory(t)
	m.SetDirtyTracking(true)
	for _, f := range []Frame{5, 70, 1500} {
		m.WriteAt(f.Addr(), []byte{1})
	}
	m.EraseRangeEpoch(0, 2000)
	if err := checkStore(m, false); err != nil {
		t.Fatal(err)
	}
	if n := len(m.spareLeaves); n != 0 {
		t.Fatalf("%d leaves recycled while their dirty bits are set", n)
	}
	m.ResetDirty()
	if err := checkStore(m, true); err != nil {
		t.Fatal(err)
	}
	if n := len(m.spareLeaves); n != 3 {
		t.Fatalf("%d leaves recycled, want 3", n)
	}
	m.WriteAt(Frame(3000).Addr(), []byte{1})
	if n := len(m.spareLeaves); n != 2 {
		t.Fatalf("materialization left %d spare leaves, want 2", n)
	}
	if err := checkStore(m, true); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentDisjointFrames runs four CPUs of a host-parallel phase
// over interleaved frames — CPU c owns the frames ≡ c mod 4 — so every
// leaf and mid node is shared while no frame is. Each CPU materializes,
// reads, rewrites and drops its own frames with dirty tracking on; the
// final contents, materialized set and dirty set must be the union of
// what each CPU did. Run it under -race: it is the lock-free read and
// dirty-bit paths' race coverage.
func TestConcurrentDisjointFrames(t *testing.T) {
	const (
		cpus   = 4
		window = 2048 // frames on each side of the first mid-node boundary
	)
	params := sim.DefaultParams()
	machine := sim.NewMachine(&params, cpus, 1)
	machine.SetHostParallel(true)
	m, err := New(machine.Clock(), &params, Config{DRAMFrames: 1 << 15, NVMFrames: 1 << 15})
	if err != nil {
		t.Fatal(err)
	}
	m.SetDirtyTracking(true)
	frames := make([]Frame, 0, 2*window)
	for f := Frame(1<<15 - window); f < 1<<15+window; f++ {
		frames = append(frames, f)
	}
	ops := 4000
	if testing.Short() {
		ops = 1000
	}
	type result struct{ vals, dirty map[Frame]byte }
	results := make([]result, cpus)
	err = machine.RunParallel(func(c *sim.CPU) error {
		rng := rand.New(rand.NewSource(int64(c.ID()) + 1))
		vals, dirty := map[Frame]byte{}, map[Frame]byte{}
		for i := 0; i < ops; i++ {
			f := frames[rng.Intn(len(frames)/cpus)*cpus+c.ID()]
			off := PhysAddr(uint64(f) * 7 % FrameSize)
			switch rng.Intn(4) {
			case 0, 1:
				v := byte(1 + rng.Intn(255))
				m.WriteAt(f.Addr()+off, []byte{v})
				vals[f], dirty[f] = v, 1
			case 2:
				if got := readByte(m, f.Addr()+off); got != vals[f] {
					return fmt.Errorf("cpu %d: frame %d reads %#x, wrote %#x", c.ID(), f, got, vals[f])
				}
			default:
				if vals[f] != 0 {
					dirty[f] = 1
				}
				m.ZeroFramesOn(c, f, 1)
				delete(vals, f)
			}
		}
		results[c.ID()] = result{vals, dirty}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var wantMat, wantDirty []Frame
	for _, r := range results {
		for f, v := range r.vals {
			wantMat = append(wantMat, f)
			off := PhysAddr(uint64(f) * 7 % FrameSize)
			if got := readByte(m, f.Addr()+off); got != v {
				t.Fatalf("frame %d reads %#x after the phase, wrote %#x", f, got, v)
			}
		}
		for f := range r.dirty {
			wantDirty = append(wantDirty, f)
		}
	}
	slices.Sort(wantMat)
	slices.Sort(wantDirty)
	if got := m.MaterializedFrameList(); !reflect.DeepEqual(got, wantMat) {
		t.Fatalf("MaterializedFrameList has %d frames, the CPUs left %d", len(got), len(wantMat))
	}
	if got := m.DirtyFrames(); !reflect.DeepEqual(got, wantDirty) {
		t.Fatalf("DirtyFrames has %d frames, the CPUs dirtied %d", len(got), len(wantDirty))
	}
	if err := checkStore(m, false); err != nil {
		t.Fatal(err)
	}
	// Outside the phase, emptied leaves are unlinked again.
	m.SetDirtyTracking(false)
	m.EraseRangeEpoch(0, m.TotalFrames())
	if err := checkStore(m, true); err != nil {
		t.Fatal(err)
	}
}

// TestFrameStoreAllocatesNothing pins the steady state at zero host
// allocations: a read of a materialized and of an absent frame, a
// write with dirty tracking on, and a drop and re-materialization
// (the spare pools absorb both).
func TestFrameStoreAllocatesNothing(t *testing.T) {
	m := checksumMemory(t)
	m.SetDirtyTracking(true)
	var b [1]byte
	live, absent := Frame(1<<32+5).Addr(), Frame(1<<32+100000).Addr()
	m.WriteAt(live, b[:])
	m.EraseRangeEpoch(0, m.TotalFrames()) // warm the spare pools
	m.ResetDirty()
	m.WriteAt(live, b[:])
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"read-materialized", func() { m.ReadAt(live, b[:]) }},
		{"read-absent", func() { m.ReadAt(absent, b[:]) }},
		{"dirty-write", func() { m.ResetDirty(); m.WriteAt(live, b[:]) }},
		{"drop-rematerialize", func() {
			m.EraseRangeEpoch(live.Frame()-1000, 1<<18)
			m.WriteAt(live, b[:])
		}},
	} {
		if n := testing.AllocsPerRun(100, tc.op); n != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", tc.name, n)
		}
	}
}

var readSink byte

// BenchmarkFrameRead is a 1-byte ReadAt of a materialized and of an
// absent frame: the lock-free lookup, sparse-read's hot path.
func BenchmarkFrameRead(b *testing.B) {
	m := checksumMemory(b)
	m.WriteAt(Frame(1<<32+5).Addr(), []byte{7})
	b.ResetTimer()
	for _, tc := range []struct {
		name string
		pa   PhysAddr
	}{
		{"materialized", Frame(1<<32 + 5).Addr()},
		{"absent", Frame(1<<32 + 100000).Addr()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var buf [1]byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.ReadAt(tc.pa, buf[:])
			}
			readSink = buf[0]
		})
	}
}

// BenchmarkDropRangeSparse materializes 64 frames spread over a
// 2^18-frame range and erases the range: the walk visits the 64 leaves
// and the mid nodes above them, not the range.
func BenchmarkDropRangeSparse(b *testing.B) {
	m := checksumMemory(b)
	start := Frame(1 << 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := Frame(0); j < 64; j++ {
			m.WriteAt((start + j<<12 + j).Addr(), []byte{1})
		}
		m.EraseRangeEpoch(start, 1<<18)
	}
}

// BenchmarkDirtyWrite is a 1-byte WriteAt of a materialized frame with
// dirty tracking on: the first write of an epoch sets the dirty bit,
// the rewrite finds it set.
func BenchmarkDirtyWrite(b *testing.B) {
	for _, tc := range []struct {
		name  string
		reset bool
	}{{"first-in-epoch", true}, {"rewrite", false}} {
		b.Run(tc.name, func(b *testing.B) {
			m, _, _ := newTestMemory(b)
			m.SetDirtyTracking(true)
			pa := Frame(1029).Addr()
			buf := []byte{1}
			m.WriteAt(pa, buf)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tc.reset {
					m.ResetDirty()
				}
				m.WriteAt(pa, buf)
			}
		})
	}
}
