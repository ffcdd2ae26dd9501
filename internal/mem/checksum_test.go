package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sim"
)

// refContentChecksum is the byte-at-a-time FNV-1a digest
// ContentChecksum must reproduce: every non-zero materialized frame in
// ascending order, hashed as its frame number (8 bytes, little-endian)
// followed by its 4096 bytes. It reads frames through the public API
// only, so it does not share the store walk it checks.
func refContentChecksum(m *Memory) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	frames := m.MaterializedFrameList()
	if !sort.SliceIsSorted(frames, func(i, j int) bool { return frames[i] < frames[j] }) {
		panic("MaterializedFrameList is not in ascending order")
	}
	buf := make([]byte, FrameSize)
	zero := make([]byte, FrameSize)
	for _, f := range frames {
		m.ReadAt(f.Addr(), buf)
		if bytes.Equal(buf, zero) {
			continue
		}
		for s := 0; s < 64; s += 8 {
			h = (h ^ uint64(f>>s)&0xff) * prime64
		}
		for _, b := range buf {
			h = (h ^ uint64(b)) * prime64
		}
	}
	return h
}

// checksumMemory is a machine whose NVM region reaches past frame
// 2^32, so frame numbers use all the bytes the digest hashes them as.
func checksumMemory(t testing.TB) *Memory {
	t.Helper()
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	m, err := New(clock, &params, Config{DRAMFrames: 1 << 10, NVMFrames: 1<<33 + 7})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// checksumFrames are frames in both regions: DRAM's ends, the seam,
// and NVM frames below and above 2^32.
var checksumFrames = []Frame{0, 1, 511, 1023, 1024, 1025, 4096, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<33 + 1023}

func TestContentChecksumMatchesByteOracle(t *testing.T) {
	cases := []struct {
		name  string
		write func(m *Memory, rng *rand.Rand)
	}{
		{"empty", func(*Memory, *rand.Rand) {}},
		{"materialized-zero", func(m *Memory, _ *rand.Rand) {
			zero := make([]byte, FrameSize)
			for _, f := range checksumFrames {
				m.WriteAt(f.Addr(), zero)
			}
		}},
		{"dense-random", func(m *Memory, rng *rand.Rand) {
			buf := make([]byte, FrameSize)
			for _, f := range checksumFrames {
				rng.Read(buf)
				m.WriteAt(f.Addr(), buf)
			}
		}},
		{"all-0xff", func(m *Memory, _ *rand.Rand) {
			buf := make([]byte, FrameSize)
			for i := range buf {
				buf[i] = 0xff
			}
			for _, f := range checksumFrames {
				m.WriteAt(f.Addr(), buf)
			}
		}},
		{"sparse-runs", func(m *Memory, rng *rand.Rand) {
			// Zero runs of every length between a few non-zero bytes,
			// including runs that end mid-word and whole-frame runs.
			for _, f := range checksumFrames {
				for off := rng.Intn(FrameSize); off < FrameSize; off += 1 + rng.Intn(900) {
					m.WriteAt(f.Addr()+PhysAddr(off), []byte{byte(1 + rng.Intn(255))})
				}
			}
		}},
		{"mixed-zero-and-not", func(m *Memory, _ *rand.Rand) {
			zero := make([]byte, FrameSize)
			for i, f := range checksumFrames {
				if i%2 == 0 {
					m.WriteAt(f.Addr(), zero)
				} else {
					m.WriteAt(f.Addr()+PhysAddr(i*97), []byte{byte(i)})
				}
			}
		}},
	}
	for _, off := range []int{0, 7, 8, 4087, 4095} {
		cases = append(cases, struct {
			name  string
			write func(m *Memory, rng *rand.Rand)
		}{fmt.Sprintf("one-byte-at-%d", off), func(m *Memory, _ *rand.Rand) {
			for _, f := range checksumFrames {
				m.WriteAt(f.Addr()+PhysAddr(off), []byte{0x5a})
			}
		}})
	}
	empty := refContentChecksum(checksumMemory(t))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				m := checksumMemory(t)
				tc.write(m, rand.New(rand.NewSource(seed)))
				want := refContentChecksum(m)
				if got := m.ContentChecksum(); got != want {
					t.Fatalf("seed %d: ContentChecksum = %#x, byte oracle = %#x", seed, got, want)
				}
				if tc.name == "materialized-zero" && want != empty {
					t.Fatalf("zero frames changed the digest: %#x, empty memory %#x", want, empty)
				}
			}
		})
	}
}

var checksumSink uint64

// BenchmarkContentChecksum digests 1024 materialized frames, sparse
// (one non-zero byte per frame) and dense (random bytes).
func BenchmarkContentChecksum(b *testing.B) {
	for _, tc := range []struct {
		name  string
		write func(m *Memory, f Frame, rng *rand.Rand)
	}{
		{"sparse", func(m *Memory, f Frame, rng *rand.Rand) {
			m.WriteAt(f.Addr()+PhysAddr(rng.Intn(FrameSize)), []byte{0x5a})
		}},
		{"dense", func(m *Memory, f Frame, rng *rand.Rand) {
			buf := make([]byte, FrameSize)
			rng.Read(buf)
			m.WriteAt(f.Addr(), buf)
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m := checksumMemory(b)
			rng := rand.New(rand.NewSource(1))
			for f := Frame(0); f < 1024; f++ {
				tc.write(m, f*3, rng)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				checksumSink = m.ContentChecksum()
			}
		})
	}
}
