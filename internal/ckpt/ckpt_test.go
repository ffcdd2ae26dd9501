package ckpt

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

func newTestMemory(t testing.TB) *mem.Memory {
	t.Helper()
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	m, err := mem.New(clock, &params, mem.Config{DRAMFrames: 256, NVMFrames: 256})
	if err != nil {
		t.Fatalf("mem.New: %v", err)
	}
	return m
}

func TestUnitsBySpan(t *testing.T) {
	spans := []Unit{{Start: 100, Count: 8}, {Start: 10, Count: 4}}
	frames := []mem.Frame{2, 11, 12, 50, 101, 107}
	got := UnitsBySpan(frames, spans)
	want := []Unit{
		{Start: 2, Count: 1},
		{Start: 10, Count: 4},
		{Start: 50, Count: 1},
		{Start: 100, Count: 8},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("UnitsBySpan = %v, want %v", got, want)
	}
	// No spans: page-granular.
	got = UnitsBySpan(frames, nil)
	if len(got) != len(frames) {
		t.Fatalf("page-granular UnitsBySpan yielded %d units, want %d", len(got), len(frames))
	}
	for i, u := range got {
		if u.Start != frames[i] || u.Count != 1 {
			t.Fatalf("unit %d = %v", i, u)
		}
	}
}

func TestUncovered(t *testing.T) {
	units := []Unit{{Start: 10, Count: 4}, {Start: 30, Count: 1}}
	frames := []mem.Frame{9, 10, 13, 14, 30, 31}
	got := Uncovered(frames, units)
	want := []mem.Frame{9, 14, 31}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Uncovered = %v, want %v", got, want)
	}
	if out := Uncovered([]mem.Frame{10, 11}, units); out != nil {
		t.Fatalf("fully covered frames reported %v", out)
	}
}

func TestCaptureAndAssemble(t *testing.T) {
	m := newTestMemory(t)
	m.WriteAt(mem.Frame(3).Addr(), []byte{0x33})
	m.WriteAt(mem.Frame(7).Addr(), []byte{0x77})
	base := CaptureImage(m)
	if len(base) != 2 || base[0].Frame != 3 || base[1].Frame != 7 {
		t.Fatalf("CaptureImage = %v", base)
	}

	// Epoch 1: rewrite 3, zero 7, create 9.
	m.SetDirtyTracking(true)
	m.WriteAt(mem.Frame(3).Addr(), []byte{0x34})
	m.ZeroFrames(7, 1)
	m.WriteAt(mem.Frame(9).Addr(), []byte{0x99})
	dirty := m.DirtyFrames()
	frames := CaptureFrames(m, dirty)
	if len(frames) != 3 {
		t.Fatalf("CaptureFrames = %v", frames)
	}
	if frames[1].Frame != 7 || frames[1].Data != nil {
		t.Fatalf("became-zero frame not recorded as nil: %v", frames[1])
	}
	d := &Delta{Epoch: 1, UpTo: 1, Frames: frames}

	img := AssembleImage(base, []*Delta{d})
	if err := ImageEqual(m, img); err != nil {
		t.Fatalf("ImageEqual: %v", err)
	}
	// A missed dirty frame must be caught.
	m.WriteAt(mem.Frame(20).Addr(), []byte{0x20})
	if err := ImageEqual(m, img); err == nil {
		t.Fatal("ImageEqual missed a divergent frame")
	}
	// ...and so must stale image contents for an erased frame.
	img2 := AssembleImage(base, nil) // drops the delta: frame 7 stale, 3 stale
	m.ZeroFrames(20, 1)
	if err := ImageEqual(m, img2); err == nil {
		t.Fatal("ImageEqual accepted a stale image")
	}
}

func testChain(t *testing.T) *Chain {
	t.Helper()
	mach := &sim.MachineState{
		Current: 0,
		CPUs: []sim.CPUState{
			{ID: 0, Clock: 123, RNG: 7, Counters: []sim.CounterValue{{Name: "ops", Value: 9}}},
			{ID: 1, Clock: 456, RNG: 8},
		},
		Stats: []sim.StatsState{{Name: "mem", Counters: []sim.CounterValue{{Name: "zeroed_frames", Value: 3}}}},
	}
	data := make([]byte, mem.FrameSize)
	data[0] = 0xab
	chain := &Chain{
		Base: &snapshot.Snapshot{
			Meta:        snapshot.Meta{Config: "fom", CPUs: 2, Seed: 5, SnapAt: 10, TraceOps: 40, Tier: true},
			Machine:     mach,
			Trace:       []byte{1, 2, 3, 4},
			MemChecksum: 0xfeed,
		},
		BaseFrames: []FrameImage{{Frame: 3, Data: data}},
		Deltas: []*Delta{
			{
				Epoch:       1,
				UpTo:        20,
				Units:       []Unit{{Start: 3, Count: 2}, {Start: 9, Count: 1}},
				Frames:      []FrameImage{{Frame: 3, Data: data}, {Frame: 4, Data: nil}},
				Machine:     mach,
				MemChecksum: 0xbeef,
			},
			{
				Epoch:       2,
				UpTo:        30,
				Units:       []Unit{{Start: 9, Count: 1}},
				Frames:      []FrameImage{{Frame: 9, Data: data}},
				Machine:     mach,
				MemChecksum: 0xcafe,
			},
		},
		Journal: &snapshot.Journal{},
	}
	chain.Journal.Append([]byte{0x01, 0x02})
	chain.Journal.Append([]byte{0x03})
	return chain
}

func TestChainRoundTrip(t *testing.T) {
	chain := testChain(t)
	var buf bytes.Buffer
	if err := chain.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(got, chain) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, chain)
	}
	if got.LastUpTo() != 30 {
		t.Fatalf("LastUpTo = %d, want 30", got.LastUpTo())
	}
	if (&Chain{Base: chain.Base}).LastUpTo() != 10 {
		t.Fatal("LastUpTo without deltas should fall back to SnapAt")
	}
}

func TestChainCompactedJournalRoundTrip(t *testing.T) {
	chain := testChain(t)
	if err := chain.Journal.Compact(1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := chain.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Journal.Watermark() != 1 || got.Journal.Len() != 1 {
		t.Fatalf("journal wm=%d len=%d, want 1/1", got.Journal.Watermark(), got.Journal.Len())
	}
}

func TestChainNotChain(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("O1MSNAP\x00garbage....."))); err != ErrNotChain {
		t.Fatalf("snapshot magic: err = %v, want ErrNotChain", err)
	}
	if _, err := Load(bytes.NewReader(nil)); err != ErrNotChain {
		t.Fatalf("empty input: err = %v, want ErrNotChain", err)
	}
}

// TestChainCorruptionDetected flips every byte of an encoded chain in
// turn: Load must fail on each mutant, never silently accept damage.
func TestChainCorruptionDetected(t *testing.T) {
	chain := testChain(t)
	var buf bytes.Buffer
	if err := chain.Save(&buf); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x01
		if _, err := Load(bytes.NewReader(mut)); err == nil {
			t.Fatalf("byte %d: corruption loaded without error", i)
		}
	}
}

// TestChainTruncationDetected cuts the encoded chain at every byte:
// Load must fail on every proper prefix (a chain file is atomic; torn
// tails belong to the journal stream, not the chain sections).
func TestChainTruncationDetected(t *testing.T) {
	chain := testChain(t)
	var buf bytes.Buffer
	if err := chain.Save(&buf); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	for cut := 0; cut < len(enc); cut++ {
		if _, err := Load(bytes.NewReader(enc[:cut])); err == nil {
			t.Fatalf("cut %d: truncated chain loaded without error", cut)
		}
	}
}

// within reports whether sub's bytes lie inside b's.
func within(sub, b []byte) bool {
	if len(sub) == 0 || len(b) == 0 {
		return false
	}
	lo, hi := &b[0], &b[len(b)-1]
	p, q := &sub[0], &sub[len(sub)-1]
	return uintptr(unsafe.Pointer(p)) >= uintptr(unsafe.Pointer(lo)) &&
		uintptr(unsafe.Pointer(q)) <= uintptr(unsafe.Pointer(hi))
}

// TestDecodeAliasesInput pins Decode's contract: frame images and the
// base trace are sub-slices of the input, not copies, and Load copies
// its reader's bytes exactly once, into one buffer of the reader's
// Len, before decoding them the same way.
func TestDecodeAliasesInput(t *testing.T) {
	chain := testChain(t)
	var buf bytes.Buffer
	if err := chain.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, chain) {
		t.Fatalf("Decode diverged:\n got %+v\nwant %+v", got, chain)
	}
	if !within(got.BaseFrames[0].Data, b) || !within(got.Deltas[0].Frames[0].Data, b) || !within(got.Base.Trace, b) {
		t.Fatal("decoded frame images or trace do not alias the input")
	}
	decode := testing.AllocsPerRun(20, func() {
		if _, err := Decode(b); err != nil {
			t.Fatal(err)
		}
	})
	r := bytes.NewReader(b)
	load := testing.AllocsPerRun(20, func() {
		r.Reset(b)
		if _, err := Load(r); err != nil {
			t.Fatal(err)
		}
	})
	if load != decode+1 {
		t.Fatalf("Load allocates %v objects, Decode %v: want exactly one input buffer more", load, decode)
	}
}
