package mem

import (
	"fmt"
	"math/bits"
)

// Spares is host storage that a released Memory hands to the next
// Memory its owner builds: zeroed frame arrays, emptied store leaves
// and emptied mid nodes. A caller that builds worlds one after another
// passes them on explicitly, Release into a Spares and Adopt out of
// it; nothing is kept in package state. Everything in a Spares is
// scrubbed, so an adopting Memory reads exactly as a fresh one.
type Spares struct {
	frames []*frameArray
	leaves []*storeLeaf
	mids   []*storeMid
}

// Release empties m into s and leaves m unusable: every later access
// to m panics, and m keeps no reference to what it handed on, so it
// can never read or write a frame of the Memory that adopts it. The
// frame arrays on m's spare pool and those still materialized go on,
// scrubbed, up to maxSpareFrames; the leaves, up to maxSpareLeaves;
// the mid nodes, at most one per directory entry of m. Storage past a
// cap is dropped. The caller must be done with m: its contents are
// gone, so release it only after its last capture.
func (m *Memory) Release(s *Spares) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s.frames = appendCapped(s.frames, m.spare, maxSpareFrames)
	s.leaves = appendCapped(s.leaves, m.spareLeaves, maxSpareLeaves)
	eachBit(m.present, 0, uint64(len(m.dir)), func(d uint64) {
		mid := m.dir[d].Load()
		eachBit(mid.present[:], 0, stMidSpan, func(j uint64) {
			l := mid.leaves[j].Load()
			for x := l.mat; x != 0 && len(s.frames) < maxSpareFrames; x &= x - 1 {
				a := l.frames[bits.TrailingZeros64(x)].Load()
				a.reset()
				s.frames = append(s.frames, a)
			}
			if len(s.leaves) < maxSpareLeaves {
				*l = storeLeaf{}
				s.leaves = append(s.leaves, l)
			}
		})
		*mid = storeMid{}
		s.mids = append(s.mids, mid)
	})
	m.frameStore = frameStore{}
	m.spare = nil
}

// Adopt moves s's storage onto m's spare pools, up to their caps, and
// empties s, so no two Memories ever share a part. Adopted storage is
// used in place of fresh allocations and changes nothing a reader of
// m can observe.
func (m *Memory) Adopt(s *Spares) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.spare = appendCapped(m.spare, s.frames, maxSpareFrames)
	m.spareLeaves = appendCapped(m.spareLeaves, s.leaves, maxSpareLeaves)
	m.spareMids = appendCapped(m.spareMids, s.mids, len(m.dir))
	*s = Spares{}
}

// appendCapped appends as much of src to dst as keeps len(dst) <= n.
func appendCapped[T any](dst, src []T, n int) []T {
	return append(dst, src[:min(len(src), max(0, n-len(dst)))]...)
}

// SpareScrubbed verifies that every backing array, leaf and mid node
// on the recycled pools is fully zeroed. A non-zero spare array would
// leak dead frame contents into the next materialization; a spare
// leaf or mid node with a link would resurrect a dead frame.
func (m *Memory) SpareScrubbed() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, d := range m.spare {
		if !d.isZero() {
			return fmt.Errorf("mem: spare frame array %d not scrubbed", i)
		}
	}
	for i, l := range m.spareLeaves {
		if l.mat != 0 || l.dirty.Load() != 0 {
			return fmt.Errorf("mem: spare leaf %d not scrubbed (mat %#x, dirty %#x)", i, l.mat, l.dirty.Load())
		}
		for k := range l.frames {
			if l.frames[k].Load() != nil {
				return fmt.Errorf("mem: spare leaf %d links a frame in slot %d", i, k)
			}
		}
	}
	for i, mid := range m.spareMids {
		for j := range mid.leaves {
			if mid.leaves[j].Load() != nil || mid.present[j>>6] != 0 {
				return fmt.Errorf("mem: spare mid node %d links a leaf in slot %d", i, j)
			}
		}
	}
	return nil
}
