package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/sim"
)

// refMemory is the map-and-mutex frame store the radix replaced: frame
// contents in a map, the dirty set in another, one lock around both.
// It charges the same simulated costs and counts the same events, and
// TestStoreMatchesMapOracle drives it beside a Memory.
type refMemory struct {
	clock   sim.Clock
	params  *sim.Params
	regions []Region

	mu    sync.Mutex
	data  map[Frame]*frameArray
	spare []*frameArray
	dirty map[Frame]struct{}

	materialized, zeroed, epochErases, copied, crashes uint64
}

func newRefMemory(m *Memory) *refMemory {
	return &refMemory{params: m.params, regions: m.Regions(), data: make(map[Frame]*frameArray)}
}

func (r *refMemory) kind(f Frame) RegionKind {
	for _, g := range r.regions {
		if f >= g.Start && f < g.End() {
			return g.Kind
		}
	}
	return DRAM
}

func (r *refMemory) frame(f Frame, write bool) *frameArray {
	r.mu.Lock()
	defer r.mu.Unlock()
	if write && r.dirty != nil {
		r.dirty[f] = struct{}{}
	}
	if d, ok := r.data[f]; ok {
		return d
	}
	if !write {
		return nil
	}
	var d *frameArray
	if n := len(r.spare); n > 0 {
		d = r.spare[n-1]
		r.spare = r.spare[:n-1]
	} else {
		d = new(frameArray)
	}
	r.data[f] = d
	r.materialized++
	return d
}

func (r *refMemory) dropFrameLocked(f Frame) {
	d, ok := r.data[f]
	if !ok {
		return
	}
	if r.dirty != nil {
		r.dirty[f] = struct{}{}
	}
	delete(r.data, f)
	if len(r.spare) < maxSpareFrames {
		d.reset()
		r.spare = append(r.spare, d)
	}
}

func (r *refMemory) dropRange(start Frame, count uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if count > uint64(len(r.data)) {
		end := start + Frame(count)
		for f := range r.data {
			if f >= start && f < end {
				r.dropFrameLocked(f)
			}
		}
		return
	}
	for i := uint64(0); i < count; i++ {
		r.dropFrameLocked(start + Frame(i))
	}
}

func (r *refMemory) ReadAt(pa PhysAddr, buf []byte) {
	for len(buf) > 0 {
		off := pa.Offset()
		n := min(FrameSize-off, uint64(len(buf)))
		if d := r.frame(pa.Frame(), false); d != nil {
			copy(buf[:n], d[off:off+n])
		} else {
			clear(buf[:n])
		}
		buf = buf[n:]
		pa += PhysAddr(n)
	}
}

func (r *refMemory) WriteAt(pa PhysAddr, buf []byte) {
	for len(buf) > 0 {
		off := pa.Offset()
		n := min(FrameSize-off, uint64(len(buf)))
		copy(r.frame(pa.Frame(), true)[off:off+n], buf[:n])
		buf = buf[n:]
		pa += PhysAddr(n)
	}
}

func (r *refMemory) ZeroFrames(start Frame, count uint64) {
	r.dropRange(start, count)
	r.clock.Advance(sim.Time(count) * r.params.ZeroPage)
	r.zeroed += count
}

func (r *refMemory) EraseRangeEpoch(start Frame, count uint64) {
	r.dropRange(start, count)
	r.clock.Advance(r.params.ZeroEpoch)
	r.epochErases++
}

func (r *refMemory) CopyFrames(dst, src Frame, count uint64) {
	for i := uint64(0); i < count; i++ {
		s := r.frame(src+Frame(i), false)
		if s == nil {
			r.mu.Lock()
			r.dropFrameLocked(dst + Frame(i))
			r.mu.Unlock()
			continue
		}
		*r.frame(dst+Frame(i), true) = *s
	}
	r.clock.Advance(sim.Time(count) * r.params.ZeroPage)
	r.copied += count
}

func (r *refMemory) Crash() {
	r.mu.Lock()
	for f := range r.data {
		if r.kind(f) == DRAM {
			r.dropFrameLocked(f)
		}
	}
	r.mu.Unlock()
	r.crashes++
}

func (r *refMemory) SetDirtyTracking(on bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !on {
		r.dirty = nil
	} else if r.dirty == nil {
		r.dirty = make(map[Frame]struct{})
	}
}

func (r *refMemory) ResetDirty() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dirty != nil {
		r.dirty = make(map[Frame]struct{})
	}
}

func (r *refMemory) ContentChecksum() uint64 {
	h := uint64(fnvOffset64)
	for _, f := range r.MaterializedFrameList() {
		h = hashFrame(h, f, r.data[f])
	}
	return h
}

func (r *refMemory) MaterializedFrameList() []Frame {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Frame, 0, len(r.data))
	for f := range r.data {
		out = append(out, f)
	}
	slices.Sort(out)
	return out
}

func (r *refMemory) DirtyFrames() []Frame {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Frame, 0, len(r.dirty))
	for f := range r.dirty {
		out = append(out, f)
	}
	slices.Sort(out)
	return out
}

func (r *refMemory) SpareScrubbed() error {
	for i, d := range r.spare {
		if !d.isZero() {
			return fmt.Errorf("ref: spare frame array %d not scrubbed", i)
		}
	}
	return nil
}

// oracleFrames are the frames the oracle's operations start near:
// DRAM's ends and the DRAM/NVM seam at 1024, 64- and 2^15-frame leaf
// and mid-node boundaries, 2^32 and the last frame of checksumMemory.
var oracleFrames = []Frame{
	0, 1, 62, 63, 64, 65, 127, 128, 1000, 1023, 1024, 1025, 1087, 1088,
	1<<15 - 1, 1 << 15, 1<<15 + 63, 1<<15 + 64, 1<<16 - 1, 1 << 16,
	1<<32 - 65, 1<<32 - 1, 1 << 32, 1<<32 + 64, 1<<32 + 1<<15,
	1<<33 + 1000, 1<<33 + 1030,
}

// oracleRange returns a random valid range starting near a
// boundary frame, from one frame to 2^33.
func oracleRange(rng *rand.Rand, total uint64) (Frame, uint64) {
	start := oracleFrames[rng.Intn(len(oracleFrames))]
	if rng.Intn(2) == 0 {
		start += Frame(rng.Intn(5)) - 2
	}
	if uint64(start) >= total {
		start = Frame(total - 1)
	}
	var count uint64
	switch rng.Intn(4) {
	case 0:
		count = 1
	case 1:
		count = 1 + uint64(rng.Intn(130))
	case 2:
		count = 1 + uint64(rng.Int63n(1<<17))
	default:
		count = 1 + uint64(rng.Int63n(1<<33))
	}
	return start, min(count, total-uint64(start))
}

// TestStoreMatchesMapOracle drives a Memory and a refMemory through
// the same seeded operation sequences and compares every observable
// after each operation: contents, the materialized and dirty sets in
// order, counts, the spare pool, simulated time and event counters.
func TestStoreMatchesMapOracle(t *testing.T) {
	seeds := 64
	if testing.Short() {
		seeds = 16
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := checksumMemory(t)
		ref := newRefMemory(m)
		total := m.TotalFrames()
		buf, got, want := make([]byte, 2*FrameSize+100), make([]byte, 2*FrameSize+100), make([]byte, 2*FrameSize+100)
		for op := 0; op < 300; op++ {
			var desc string
			switch k := rng.Intn(20); {
			case k < 8: // up to two frames and a bit, zeros or random bytes
				start, _ := oracleRange(rng, total)
				pa := start.Addr() + PhysAddr(rng.Intn(FrameSize))
				n := 1 + rng.Intn(len(buf))
				if uint64(pa)+uint64(n) > total<<FrameShift {
					n = int(total<<FrameShift - uint64(pa))
				}
				if rng.Intn(4) == 0 {
					clear(buf[:n])
				} else {
					rng.Read(buf[:n])
				}
				m.WriteAt(pa, buf[:n])
				ref.WriteAt(pa, buf[:n])
				desc = fmt.Sprintf("WriteAt(%#x, %d)", pa, n)
			case k < 11:
				start, _ := oracleRange(rng, total)
				pa := start.Addr() + PhysAddr(rng.Intn(FrameSize))
				n := 1 + rng.Intn(len(got))
				if uint64(pa)+uint64(n) > total<<FrameShift {
					n = int(total<<FrameShift - uint64(pa))
				}
				for i := range got[:n] {
					got[i], want[i] = 0xa5, 0x5a
				}
				m.ReadAt(pa, got[:n])
				ref.ReadAt(pa, want[:n])
				if !bytes.Equal(got[:n], want[:n]) {
					t.Fatalf("seed %d op %d: ReadAt(%#x, %d) differs from the map oracle", seed, op, pa, n)
				}
				continue
			case k < 13:
				start, count := oracleRange(rng, total)
				m.ZeroFrames(start, count)
				ref.ZeroFrames(start, count)
				desc = fmt.Sprintf("ZeroFrames(%d, %d)", start, count)
			case k < 15:
				start, count := oracleRange(rng, total)
				m.EraseRangeEpoch(start, count)
				ref.EraseRangeEpoch(start, count)
				desc = fmt.Sprintf("EraseRangeEpoch(%d, %d)", start, count)
			case k < 17:
				dst, _ := oracleRange(rng, total)
				src, _ := oracleRange(rng, total)
				count := min(1+uint64(rng.Intn(70)), total-uint64(dst), total-uint64(src))
				m.CopyFrames(dst, src, count)
				ref.CopyFrames(dst, src, count)
				desc = fmt.Sprintf("CopyFrames(%d, %d, %d)", dst, src, count)
			case k < 18:
				m.Crash()
				ref.Crash()
				desc = "Crash"
			case k < 19:
				on := rng.Intn(3) != 0
				m.SetDirtyTracking(on)
				ref.SetDirtyTracking(on)
				desc = fmt.Sprintf("SetDirtyTracking(%v)", on)
			default:
				m.ResetDirty()
				ref.ResetDirty()
				desc = "ResetDirty"
			}
			compareWithOracle(t, fmt.Sprintf("seed %d op %d %s", seed, op, desc), m, ref)
		}
	}
}

// compareWithOracle fails the test when any observable of m differs
// from ref's.
func compareWithOracle(t *testing.T, at string, m *Memory, ref *refMemory) {
	t.Helper()
	if got, want := m.MaterializedFrameList(), ref.MaterializedFrameList(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: MaterializedFrameList = %v, map oracle %v", at, got, want)
	}
	if got, want := m.MaterializedFrames(), len(ref.data); got != want {
		t.Fatalf("%s: MaterializedFrames = %d, map oracle %d", at, got, want)
	}
	if got, want := m.ContentChecksum(), ref.ContentChecksum(); got != want {
		t.Fatalf("%s: ContentChecksum = %#x, map oracle %#x", at, got, want)
	}
	if got, want := m.DirtyFrames(), ref.DirtyFrames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: DirtyFrames = %v, map oracle %v", at, got, want)
	}
	if got, want := m.DirtyCount(), len(ref.dirty); got != want {
		t.Fatalf("%s: DirtyCount = %d, map oracle %d", at, got, want)
	}
	if got, want := m.DirtyTracking(), ref.dirty != nil; got != want {
		t.Fatalf("%s: DirtyTracking = %v, map oracle %v", at, got, want)
	}
	if err := checkStore(m, true); err != nil {
		t.Fatalf("%s: %v", at, err)
	}
	if err := m.SpareScrubbed(); err != nil {
		t.Fatalf("%s: %v", at, err)
	}
	if err := ref.SpareScrubbed(); err != nil {
		t.Fatalf("%s: %v", at, err)
	}
	if got, want := len(m.spare), len(ref.spare); got != want {
		t.Fatalf("%s: %d spare arrays, map oracle %d", at, got, want)
	}
	if got, want := m.clock.Now(), ref.clock.Now(); got != want {
		t.Fatalf("%s: simulated time %v, map oracle %v", at, got, want)
	}
	s := m.Stats()
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"materialized_frames", ref.materialized},
		{"zeroed_frames", ref.zeroed},
		{"epoch_erases", ref.epochErases},
		{"copied_frames", ref.copied},
		{"crashes", ref.crashes},
	} {
		if got := s.Value(c.name); got != c.want {
			t.Fatalf("%s: counter %s = %d, map oracle %d", at, c.name, got, c.want)
		}
	}
}
