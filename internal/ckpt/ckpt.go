// Package ckpt implements incremental (differential) checkpoints on
// top of the full-machine snapshots of internal/snapshot.
//
// A chain is a base snapshot plus a sequence of deltas. The base
// carries the restore-by-reexecution recipe (config, seed, trace,
// SnapAt) and a full image of physical memory at capture time; each
// delta carries only the frames dirtied since the previous capture —
// obtained from mem's dirty tracking — plus the machine state and
// memory digest that prove a rebuild landed exactly where the delta
// was taken. Restoring replays the trace prefix up to the last delta
// (deterministic reconstruction), then the journal suffix past the
// compaction watermark; the differential image (base overlaid with
// every delta) must be bit-identical to the rebuilt memory, which is
// what makes "the dirty set is everything that changed" a checked
// property rather than an assumption.
//
// The package also defines Unit, the granularity at which a subsystem
// checkpoints dirty memory: extent-based configurations (FOM, PBM,
// ranges, usermode grants) coalesce dirty frames into the extents that
// own them — O(dirty extents) metadata — while the page-table baseline
// pays one unit per dirty page, the contrast the paper predicts.
package ckpt

import (
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// Unit is a contiguous frame run that one checkpoint metadata
// operation covers: a file extent, a grant, or a single page for
// page-granular subsystems.
type Unit struct {
	Start mem.Frame
	Count uint64
}

// End returns the first frame past the unit.
func (u Unit) End() mem.Frame { return u.Start + mem.Frame(u.Count) }

// FrameImage is the captured contents of one frame. Data is nil when
// the frame reads as all-zero — deltas must record "became zero"
// explicitly, since overlaying them on a base image would otherwise
// resurrect stale bytes.
type FrameImage struct {
	Frame mem.Frame
	Data  []byte
}

// Delta is one incremental checkpoint: the dirty frames since the
// previous capture, the units that cover them, and the proof state
// (machine capture + memory digest) pinning the rebuild target.
type Delta struct {
	// Epoch is the 1-based position of the delta in its chain.
	Epoch int
	// UpTo is the number of trace operations executed at capture.
	UpTo int
	// Units cover every dirty frame at subsystem granularity.
	Units []Unit
	// Frames holds the contents of every dirty frame, ascending.
	Frames []FrameImage
	// Machine is the sim state capture at UpTo.
	Machine *sim.MachineState
	// MemChecksum is mem.(*Memory).ContentChecksum() at UpTo.
	MemChecksum uint64
}

// Chain is a base snapshot plus its deltas and the journal of records
// appended after the last delta (compacted up to the watermark).
type Chain struct {
	Base *snapshot.Snapshot
	// BaseFrames is the full memory image at Base.Meta.SnapAt: every
	// non-zero frame (absent frames read as zero).
	BaseFrames []FrameImage
	Deltas     []*Delta
	Journal    *snapshot.Journal
}

// LastUpTo returns the trace position of the most recent capture: the
// last delta's UpTo, or the base's SnapAt with no deltas.
func (c *Chain) LastUpTo() int {
	if n := len(c.Deltas); n > 0 {
		return c.Deltas[n-1].UpTo
	}
	return c.Base.Meta.SnapAt
}

// CaptureImage captures the full observable memory image: every
// materialized frame with non-zero contents. Tooling only — advances
// no simulated clock.
func CaptureImage(m *mem.Memory) []FrameImage {
	out := capture(m, m.MaterializedFrameList(), false)
	if len(out) == 0 {
		return nil
	}
	return out
}

// CaptureFrames captures the contents of exactly the given frames
// (typically the dirty set), preserving became-zero entries as nil
// Data. Frames must be sorted ascending, as mem.DirtyFrames returns.
func CaptureFrames(m *mem.Memory, frames []mem.Frame) []FrameImage {
	return capture(m, frames, true)
}

// capture images the given frames with one exactly sized allocation
// for all their contents: the non-zero frames are counted first, and
// each one's Data is a cap-limited FrameSize sub-slice of a single
// backing array, so appending to one image reallocates rather than
// overwriting its neighbour. Zero frames get nil Data, or are left out
// unless keepZero.
func capture(m *mem.Memory, frames []mem.Frame, keepZero bool) []FrameImage {
	n := m.NonZeroCount(frames)
	size := n
	if keepZero {
		size = len(frames)
	}
	out := make([]FrameImage, 0, size)
	backing := make([]byte, n*mem.FrameSize)
	for _, f := range frames {
		img := FrameImage{Frame: f}
		// Once every non-zero frame is captured the rest read as zero.
		if len(backing) > 0 && m.ReadNonZeroFrame(f, backing) {
			img.Data, backing = backing[:mem.FrameSize:mem.FrameSize], backing[mem.FrameSize:]
		} else if !keepZero {
			continue
		}
		out = append(out, img)
	}
	return out
}

// zeroFrame is the all-zero reference allZero compares against.
var zeroFrame [mem.FrameSize]byte

// allZero reports whether b is all zero, one memory comparison per
// frame-sized chunk.
func allZero(b []byte) bool {
	for len(b) > len(zeroFrame) {
		if string(b[:len(zeroFrame)]) != string(zeroFrame[:]) {
			return false
		}
		b = b[len(zeroFrame):]
	}
	return string(b) == string(zeroFrame[:len(b)])
}

// AssembleImage overlays the deltas onto the base image, yielding the
// differential reconstruction of memory at the last delta: frame →
// contents, with all-zero frames absent.
func AssembleImage(base []FrameImage, deltas []*Delta) map[mem.Frame][]byte {
	img := make(map[mem.Frame][]byte, len(base))
	for _, fi := range base {
		if fi.Data != nil {
			img[fi.Frame] = fi.Data
		}
	}
	for _, d := range deltas {
		for _, fi := range d.Frames {
			if fi.Data == nil {
				delete(img, fi.Frame)
			} else {
				img[fi.Frame] = fi.Data
			}
		}
	}
	return img
}

// ImageEqual proves that memory's observable contents are bit-identical
// to the assembled image. This is the differential-restore soundness
// check: a dirty frame the tracking missed shows up here as a frame
// whose memory bytes differ from the (stale) image.
func ImageEqual(m *mem.Memory, img map[mem.Frame][]byte) error {
	seen := make(map[mem.Frame]bool, len(img))
	buf := make([]byte, mem.FrameSize)
	for _, f := range m.MaterializedFrameList() {
		m.ReadAt(f.Addr(), buf)
		want := img[f]
		seen[f] = true
		if want == nil {
			if !allZero(buf) {
				return fmt.Errorf("ckpt: frame %d non-zero in memory, zero in differential image", f)
			}
			continue
		}
		if string(buf) != string(want) {
			return fmt.Errorf("ckpt: frame %d contents diverge from differential image", f)
		}
	}
	for f, want := range img {
		if seen[f] {
			continue
		}
		// Frame absent from memory reads as zero; the image claims bytes.
		if !allZero(want) {
			return fmt.Errorf("ckpt: frame %d non-zero in differential image, zero in memory", f)
		}
	}
	return nil
}

// UnitsBySpan maps a sorted dirty-frame set onto covering spans: each
// span (extent, grant, …) containing at least one dirty frame becomes
// one unit; dirty frames outside every span become single-page units.
// Spans must be non-overlapping; the result is ordered by first dirty
// frame and deduplicated. With no spans the result is page-granular —
// the baseline's cost model.
func UnitsBySpan(frames []mem.Frame, spans []Unit) []Unit {
	sorted := append([]Unit(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	var out []Unit
	lastSpan := -1
	for _, f := range frames {
		i := sort.Search(len(sorted), func(i int) bool { return sorted[i].End() > f })
		if i < len(sorted) && sorted[i].Start <= f {
			if i != lastSpan {
				out = append(out, sorted[i])
				lastSpan = i
			}
			continue
		}
		out = append(out, Unit{Start: f, Count: 1})
		lastSpan = -1
	}
	return out
}

// Uncovered returns the dirty frames not covered by any unit — a
// subsystem that fails to claim its dirty memory is a checkpointing
// bug, and the harness treats a non-empty result as a failure.
func Uncovered(frames []mem.Frame, units []Unit) []mem.Frame {
	sorted := append([]Unit(nil), units...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	var out []mem.Frame
	for _, f := range frames {
		i := sort.Search(len(sorted), func(i int) bool { return sorted[i].End() > f })
		if i < len(sorted) && sorted[i].Start <= f {
			continue
		}
		out = append(out, f)
	}
	return out
}
