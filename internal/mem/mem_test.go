package mem

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func newTestMemory(t testing.TB) (*Memory, *sim.Clock, sim.Params) {
	t.Helper()
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	m, err := New(clock, &params, Config{DRAMFrames: 1024, NVMFrames: 2048})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m, clock, params
}

func TestNewRejectsEmptyMachine(t *testing.T) {
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	if _, err := New(clock, &params, Config{}); err == nil {
		t.Fatal("New accepted a machine with no memory")
	}
}

func TestNewRejectsOversizedMachine(t *testing.T) {
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	for _, cfg := range []Config{
		{DRAMFrames: MaxFrames + 1},
		{DRAMFrames: MaxFrames, NVMFrames: 1},
		{DRAMFrames: 1, NVMFrames: ^uint64(0)},
	} {
		if _, err := New(clock, &params, cfg); err == nil {
			t.Fatalf("New accepted %+v, more than MaxFrames", cfg)
		}
	}
	m, err := New(clock, &params, Config{DRAMFrames: 1 << 20, NVMFrames: MaxFrames - 1<<20})
	if err != nil {
		t.Fatalf("New rejected a machine of MaxFrames frames: %v", err)
	}
	last := Frame(MaxFrames - 1)
	m.WriteAt(last.Addr(), []byte{7})
	if got := readByte(m, last.Addr()); got != 7 {
		t.Fatalf("last frame reads %#x, wrote 0x07", got)
	}
}

// readByte returns the byte at pa.
func readByte(m *Memory, pa PhysAddr) byte {
	var b [1]byte
	m.ReadAt(pa, b[:])
	return b[0]
}

func TestRegionLayout(t *testing.T) {
	m, _, _ := newTestMemory(t)
	if m.TotalFrames() != 3072 {
		t.Fatalf("TotalFrames = %d, want 3072", m.TotalFrames())
	}
	regions := m.regions
	if len(regions) != 2 {
		t.Fatalf("got %d regions, want 2", len(regions))
	}
	if regions[0].Kind != DRAM || regions[0].Start != 0 || regions[0].Count != 1024 {
		t.Fatalf("DRAM region = %+v", regions[0])
	}
	if regions[1].Kind != NVM || regions[1].Start != 1024 || regions[1].Count != 2048 {
		t.Fatalf("NVM region = %+v", regions[1])
	}
}

func TestRegionLookup(t *testing.T) {
	m, _, _ := newTestMemory(t)
	r, ok := m.Region(NVM)
	if !ok || r.Start != 1024 {
		t.Fatalf("Region(NVM) = %+v, %v", r, ok)
	}
	if m.Kind(0) != DRAM || m.Kind(1024) != NVM || m.Kind(3071) != NVM {
		t.Fatal("Kind misclassifies frames")
	}
}

func TestAddrFrameRoundTrip(t *testing.T) {
	f := Frame(37)
	a := f.Addr() + 123
	if a.Frame() != f || a.Offset() != 123 {
		t.Fatalf("round trip failed: frame=%d off=%d", a.Frame(), a.Offset())
	}
}

func TestReadsOfUnwrittenMemoryAreZero(t *testing.T) {
	m, _, _ := newTestMemory(t)
	buf := make([]byte, 100)
	for i := range buf {
		buf[i] = 0xFF
	}
	m.ReadAt(Frame(5).Addr(), buf)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
	if m.MaterializedFrames() != 0 {
		t.Fatal("read materialized frames")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	m, _, _ := newTestMemory(t)
	data := []byte("hello o1 memory")
	pa := Frame(10).Addr() + 4000 // crosses a frame boundary
	m.WriteAt(pa, data)
	got := make([]byte, len(data))
	m.ReadAt(pa, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("read back %q, want %q", got, data)
	}
}

func TestOutOfRangeAccessPanics(t *testing.T) {
	m, _, _ := newTestMemory(t)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range read did not panic")
		}
	}()
	readByte(m, PhysAddr(m.TotalFrames()<<FrameShift))
}

func TestZeroFramesChargesLinearTime(t *testing.T) {
	m, clock, params := newTestMemory(t)
	m.WriteAt(Frame(7).Addr(), []byte{1})
	start := clock.Now()
	m.ZeroFrames(7, 4)
	if got, want := clock.Since(start), 4*params.ZeroPage; got != want {
		t.Fatalf("ZeroFrames charged %v, want %v", got, want)
	}
	if readByte(m, Frame(7).Addr()) != 0 {
		t.Fatal("frame not zeroed")
	}
}

func TestEraseRangeEpochIsConstantTime(t *testing.T) {
	m, clock, params := newTestMemory(t)
	m.WriteAt(Frame(0).Addr(), []byte{9})
	small := clock.Now()
	m.EraseRangeEpoch(0, 1)
	smallCost := clock.Since(small)

	m.WriteAt(Frame(100).Addr(), []byte{9})
	big := clock.Now()
	m.EraseRangeEpoch(100, 2000)
	bigCost := clock.Since(big)

	if smallCost != bigCost || smallCost != params.ZeroEpoch {
		t.Fatalf("epoch erase costs differ: %v vs %v (want both %v)", smallCost, bigCost, params.ZeroEpoch)
	}
	if readByte(m, Frame(100).Addr()) != 0 {
		t.Fatal("epoch erase did not zero content")
	}
}

func TestCrashDropsDRAMKeepsNVM(t *testing.T) {
	m, _, _ := newTestMemory(t)
	m.WriteAt(Frame(10).Addr(), []byte{0x11})   // DRAM
	m.WriteAt(Frame(2000).Addr(), []byte{0x22}) // NVM
	m.Crash()
	if readByte(m, Frame(10).Addr()) != 0 {
		t.Fatal("DRAM content survived crash")
	}
	if readByte(m, Frame(2000).Addr()) != 0x22 {
		t.Fatal("NVM content lost in crash")
	}
}

func TestCopyFrames(t *testing.T) {
	m, _, _ := newTestMemory(t)
	m.WriteAt(Frame(1).Addr(), []byte{1, 2, 3})
	m.copyFrames(m.clock, 20, 1, 2)
	got := make([]byte, 3)
	m.ReadAt(Frame(20).Addr(), got)
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("copy read back %v", got)
	}
	// Copying an unmaterialized source zeroes the destination.
	m.WriteAt(Frame(30).Addr(), []byte{0xFF})
	m.copyFrames(m.clock, 30, 500, 1)
	if readByte(m, Frame(30).Addr()) != 0 {
		t.Fatal("copy from zero frame did not zero destination")
	}
}

func TestValid(t *testing.T) {
	m, _, _ := newTestMemory(t)
	if !m.Valid(0, 3072) {
		t.Fatal("full range should be valid")
	}
	if m.Valid(3000, 100) {
		t.Fatal("overflowing range should be invalid")
	}
	if m.Valid(4000, 1) {
		t.Fatal("frame past end should be invalid")
	}
}

func TestRegionKindString(t *testing.T) {
	if DRAM.String() != "DRAM" || NVM.String() != "NVM" {
		t.Fatal("kind names wrong")
	}
	if RegionKind(9).String() == "" {
		t.Fatal("unknown kind should still format")
	}
}

func TestWriteReadPropertyQuick(t *testing.T) {
	m, _, _ := newTestMemory(t)
	f := func(frame uint16, off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 8192 {
			data = data[:8192]
		}
		fr := Frame(uint64(frame) % 3000)
		pa := fr.Addr() + PhysAddr(uint64(off)%FrameSize)
		if !m.Valid(pa.Frame(), uint64(len(data)/FrameSize)+2) {
			return true
		}
		m.WriteAt(pa, data)
		got := make([]byte, len(data))
		m.ReadAt(pa, got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestOneByteReads checks the one-byte ReadAt path, which loads the
// byte directly, against a two-byte read through the copy loop: at
// every offset class of a written frame (first, middle, last byte),
// in a frame never written, and across a frame boundary.
func TestOneByteReads(t *testing.T) {
	m, _, _ := newTestMemory(t)
	base := Frame(10).Addr()
	data := make([]byte, 2*FrameSize)
	for i := range data {
		data[i] = byte(i*7 + 1)
	}
	m.WriteAt(base, data)
	for _, off := range []PhysAddr{0, 1, 2047, FrameSize - 1, FrameSize, 2*FrameSize - 2} {
		var one [1]byte
		var two [2]byte
		m.ReadAt(base+off, one[:])
		m.ReadAt(base+off, two[:])
		if one[0] != data[off] || two[0] != data[off] {
			t.Fatalf("offset %d: one-byte read %#x, two-byte read %#x, want %#x", off, one[0], two[0], data[off])
		}
	}
	one := [1]byte{0xff}
	m.ReadAt(Frame(20).Addr()+5, one[:])
	if one[0] != 0 {
		t.Fatalf("one-byte read of an unwritten frame = %#x, want 0", one[0])
	}
}
