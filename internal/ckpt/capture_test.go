package ckpt

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mem"
)

// refCaptureImage and refCaptureFrames are the one-copy-per-frame
// captures CaptureImage and CaptureFrames must match: read each frame
// into a buffer, test it byte by byte, copy it out if non-zero.
func refCaptureImage(m *mem.Memory) []FrameImage {
	var out []FrameImage
	buf := make([]byte, mem.FrameSize)
	for _, f := range m.MaterializedFrameList() {
		m.ReadAt(f.Addr(), buf)
		if refAllZero(buf) {
			continue
		}
		out = append(out, FrameImage{Frame: f, Data: append([]byte(nil), buf...)})
	}
	return out
}

func refCaptureFrames(m *mem.Memory, frames []mem.Frame) []FrameImage {
	out := make([]FrameImage, 0, len(frames))
	buf := make([]byte, mem.FrameSize)
	for _, f := range frames {
		m.ReadAt(f.Addr(), buf)
		img := FrameImage{Frame: f}
		if !refAllZero(buf) {
			img.Data = append([]byte(nil), buf...)
		}
		out = append(out, img)
	}
	return out
}

func refAllZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// seededCaptureMemory writes a seeded mix into both regions of a test
// memory with dirty tracking on: dense and sparse frames, frames
// written with zeros (materialized but zero), and frames erased after
// a write (became zero, no longer materialized).
func seededCaptureMemory(t testing.TB, seed int64) *mem.Memory {
	m := newTestMemory(t)
	m.SetDirtyTracking(true)
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, mem.FrameSize)
	for i := 0; i < 120; i++ {
		f := mem.Frame(rng.Intn(512))
		switch rng.Intn(5) {
		case 0: // dense
			rng.Read(buf)
			m.WriteAt(f.Addr(), buf)
		case 1: // materialized zero
			m.WriteAt(f.Addr(), make([]byte, mem.FrameSize))
		case 2: // erased after a write
			m.WriteByteAt(f.Addr(), 1)
			m.ZeroFrames(f, 1)
		default: // sparse
			m.WriteByteAt(f.Addr()+mem.PhysAddr(rng.Intn(mem.FrameSize)), byte(1+rng.Intn(255)))
		}
	}
	return m
}

func checkImagesExact(t *testing.T, what string, imgs []FrameImage) {
	t.Helper()
	for _, fi := range imgs {
		if fi.Data != nil && (len(fi.Data) != mem.FrameSize || cap(fi.Data) != mem.FrameSize) {
			t.Fatalf("%s: frame %d image len %d cap %d, want %d", what, fi.Frame, len(fi.Data), cap(fi.Data), mem.FrameSize)
		}
	}
}

func TestCaptureMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		m := seededCaptureMemory(t, seed)
		dirty := m.DirtyFrames()
		all := make([]mem.Frame, 512) // absent frames too
		for i := range all {
			all[i] = mem.Frame(i)
		}
		for _, tc := range []struct {
			name      string
			got, want []FrameImage
		}{
			{"CaptureImage", CaptureImage(m), refCaptureImage(m)},
			{"CaptureFrames(dirty)", CaptureFrames(m, dirty), refCaptureFrames(m, dirty)},
			{"CaptureFrames(all)", CaptureFrames(m, all), refCaptureFrames(m, all)},
			{"CaptureFrames(none)", CaptureFrames(m, nil), refCaptureFrames(m, nil)},
		} {
			if !reflect.DeepEqual(tc.got, tc.want) {
				t.Fatalf("seed %d: %s differs from the reference capture", seed, tc.name)
			}
			checkImagesExact(t, tc.name, tc.got)
		}
	}
	// A memory whose every materialized frame is zero captures as nil.
	m := newTestMemory(t)
	m.WriteAt(mem.Frame(5).Addr(), make([]byte, mem.FrameSize))
	if got := CaptureImage(m); got != nil {
		t.Fatalf("CaptureImage of zero memory = %v, want nil", got)
	}
}

// TestCapturedFrameAppendKeepsNeighbour: captured images share one
// backing array, so appending to one must reallocate rather than
// write over the next image's bytes.
func TestCapturedFrameAppendKeepsNeighbour(t *testing.T) {
	m := newTestMemory(t)
	m.WriteByteAt(mem.Frame(3).Addr(), 0x33)
	m.WriteByteAt(mem.Frame(4).Addr(), 0x44)
	for _, imgs := range [][]FrameImage{CaptureImage(m), CaptureFrames(m, []mem.Frame{3, 4})} {
		a, b := imgs[0].Data, imgs[1].Data
		want := append([]byte(nil), b[:16]...)
		_ = append(a, 0xee, 0xee, 0xee, 0xee, 0xee, 0xee, 0xee, 0xee, 0xee, 0xee, 0xee, 0xee, 0xee)
		if !bytes.Equal(b[:16], want) {
			t.Fatal("append to one captured frame image overwrote its neighbour")
		}
	}
}

// TestCaptureFramesAllocs pins a capture at two allocations however
// many frames it holds: the result slice and one backing array.
func TestCaptureFramesAllocs(t *testing.T) {
	m := seededCaptureMemory(t, 1)
	dirty := m.DirtyFrames()
	if n := m.NonZeroCount(dirty); n == 0 {
		t.Fatal("seeded memory has no non-zero dirty frame")
	}
	if got := testing.AllocsPerRun(20, func() { CaptureFrames(m, dirty) }); got != 2 {
		t.Fatalf("CaptureFrames allocates %v times per call, want 2", got)
	}
}

func TestAllZero(t *testing.T) {
	for _, n := range []int{0, 1, 7, mem.FrameSize - 1, mem.FrameSize, mem.FrameSize + 1, 2*mem.FrameSize + 3} {
		b := make([]byte, n)
		if !allZero(b) {
			t.Fatalf("allZero(%d zero bytes) = false", n)
		}
		for _, i := range []int{0, n / 2, n - 1} {
			if i < 0 || i >= n {
				continue
			}
			b[i] = 1
			if allZero(b) {
				t.Fatalf("allZero missed a non-zero byte at %d of %d", i, n)
			}
			b[i] = 0
		}
	}
}

var captureSink []FrameImage

// BenchmarkCaptureFrames captures a 512-frame dirty set in which half
// the frames hold one non-zero byte and half became zero.
func BenchmarkCaptureFrames(b *testing.B) {
	m := newTestMemory(b)
	frames := make([]mem.Frame, 0, 512)
	for f := mem.Frame(0); f < 512; f++ {
		if f%2 == 0 {
			m.WriteByteAt(f.Addr()+mem.PhysAddr(f), 0x5a)
		} else {
			m.WriteByteAt(f.Addr(), 1)
			m.ZeroFrames(f, 1)
		}
		frames = append(frames, f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		captureSink = CaptureFrames(m, frames)
	}
}
