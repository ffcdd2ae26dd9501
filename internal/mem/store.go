package mem

import (
	"math/bits"
	"sync/atomic"
)

// The frame store holds the materialized frame contents and the dirty
// bits of a Memory in a frame-indexed radix, the host's dense mem_map:
// a directory entry per 2^15 frames, allocated at New, 512-entry mid
// nodes and 64-frame leaves. A leaf holds its frames' backing arrays
// and one dirty word, bit k for frame k of the leaf.
//
// Reads take no lock. Every link — a mid node in the directory, a leaf
// in a mid node, a backing array in a leaf — is published with an
// atomic store, so lookup(f) is three dependent atomic loads.
// Materialization, drops, dirty resets and the walks run under m.mu,
// which also guards the presence bitmaps that let walks skip absent
// subtrees: a walk over [start, end) visits only the linked mid nodes
// and leaves in that range, so its host cost is proportional to what
// exists there and never to the range.
//
// A write to a materialized frame sets its dirty bit with an atomic
// compare-and-swap and takes no lock either. m.dirtyN counts the set
// bits; a bit's 0 → 1 transition, which only one swap can win, adds to
// it.
//
// Why lock-free readers are sound: the CPUs of a host-parallel phase
// touch disjoint frames (per-CPU arenas), so no reader can race with
// a materialization or drop of the frame it reads — only with changes
// to other frames of the same leaf and mid node, which never move the
// frame's own slot. The one hazard would be a reader holding a leaf
// that is unlinked and recycled for other frames before it loads its
// slot. A leaf is unlinked only when it holds no frame and no dirty
// bit, and only outside a parallel phase's free-running window
// (Machine.FreeRunning, which covers serial-mode phases too; see
// unlinkLeaf). Outside that window the machine's CPUs run one at a
// time, and their handoffs order every earlier read before the unlink.
// Mid nodes are never unlinked. The same argument lets a drop of one
// absent frame skip the lock: only the frame's owner can materialize
// it.

// Frame-store geometry.
const (
	stLeafShift = 6
	stMidShift  = 9
	stDirShift  = stLeafShift + stMidShift
	stLeafSpan  = 1 << stLeafShift
	stMidSpan   = 1 << stMidShift
)

// MaxFrames is the largest address space, in frames, that New accepts
// (256 TiB). It bounds the store's directory, which New allocates
// whole: one 8-byte entry per 2^15 frames, 16 MiB at the limit.
const MaxFrames = 1 << 36

// maxSpareLeaves bounds the recycled-leaf pool (576 KiB of host
// memory), as maxSpareFrames bounds the frame-array pool.
const maxSpareLeaves = 1024

// storeLeaf holds 64 consecutive frames, the first aligned to 64.
type storeLeaf struct {
	frames [stLeafSpan]atomic.Pointer[frameArray]
	dirty  atomic.Uint64 // bit k: frame k dirtied since the last ResetDirty
	mat    uint64        // bit k: frames[k] is linked; guarded by mu
}

// storeMid holds the leaves of one directory entry's 2^15 frames.
type storeMid struct {
	leaves  [stMidSpan]atomic.Pointer[storeLeaf]
	present [stMidSpan / 64]uint64 // bit j: leaves[j] is linked; guarded by mu
}

// frameStore is the radix; see the top of this file.
type frameStore struct {
	dir         []atomic.Pointer[storeMid]
	present     []uint64 // bit i: dir[i] is linked; guarded by mu
	spareLeaves []*storeLeaf
	nFrames     int // materialized frames; guarded by mu
	tracking    atomic.Bool
	dirtyN      atomic.Int64
}

func newFrameStore(total uint64) frameStore {
	n := (total + 1<<stDirShift - 1) >> stDirShift
	return frameStore{
		dir:     make([]atomic.Pointer[storeMid], n),
		present: make([]uint64, (n+63)/64),
	}
}

// leaf returns the leaf holding f, or nil. It takes no lock.
func (s *frameStore) leaf(f Frame) *storeLeaf {
	mid := s.dir[f>>stDirShift].Load()
	if mid == nil {
		return nil
	}
	return mid.leaves[(f>>stLeafShift)&(stMidSpan-1)].Load()
}

// lookup returns f's backing array, or nil when f reads as zero. It
// takes no lock.
func (s *frameStore) lookup(f Frame) *frameArray {
	if l := s.leaf(f); l != nil {
		return l.frames[f&(stLeafSpan-1)].Load()
	}
	return nil
}

// markDirty sets slot k's dirty bit: a compare-and-swap loop, the
// atomic OR of a go1.22 module. A rewrite of a dirty frame costs one
// load and no read-modify-write.
func (s *frameStore) markDirty(l *storeLeaf, k uint) {
	bit := uint64(1) << k
	for {
		old := l.dirty.Load()
		if old&bit != 0 {
			return
		}
		if l.dirty.CompareAndSwap(old, old|bit) {
			s.dirtyN.Add(1)
			return
		}
	}
}

// leafForWrite returns the leaf holding f, linking a mid node and a
// leaf first when f has none. Caller holds mu.
func (s *frameStore) leafForWrite(f Frame) *storeLeaf {
	d := uint64(f) >> stDirShift
	mid := s.dir[d].Load()
	if mid == nil {
		mid = new(storeMid)
		s.dir[d].Store(mid)
		s.present[d>>6] |= 1 << (d & 63)
	}
	j := uint64(f>>stLeafShift) & (stMidSpan - 1)
	l := mid.leaves[j].Load()
	if l == nil {
		if n := len(s.spareLeaves); n > 0 {
			l = s.spareLeaves[n-1]
			s.spareLeaves[n-1] = nil
			s.spareLeaves = s.spareLeaves[:n-1]
		} else {
			l = new(storeLeaf)
		}
		mid.leaves[j].Store(l)
		mid.present[j>>6] |= 1 << (j & 63)
	}
	return l
}

// leafRef is one linked leaf met by a walk: its first frame, the mid
// node and slot that link it, and the mask of its slots in the walked
// range.
type leafRef struct {
	l    *storeLeaf
	mid  *storeMid
	j    uint64
	base Frame
	mask uint64
}

// eachLeaf calls fn for every linked leaf overlapping [start, end), in
// ascending frame order. fn may unlink the leaf it is given. Caller
// holds mu.
func (s *frameStore) eachLeaf(start, end Frame, fn func(r leafRef)) {
	if start >= end {
		return
	}
	lo, hi := uint64(start)>>stLeafShift, (uint64(end)+stLeafSpan-1)>>stLeafShift
	eachBit(s.present, lo>>stMidShift, (hi+stMidSpan-1)>>stMidShift, func(d uint64) {
		mid := s.dir[d].Load()
		first := d << stMidShift
		eachBit(mid.present[:], max(lo, first)-first, min(hi, first+stMidSpan)-first, func(j uint64) {
			base := Frame((first + j) << stLeafShift)
			mask := ^uint64(0)
			if start > base {
				mask <<= uint64(start - base)
			}
			if end < base+stLeafSpan {
				mask &= 1<<uint64(end-base) - 1
			}
			fn(leafRef{l: mid.leaves[j].Load(), mid: mid, j: j, base: base, mask: mask})
		})
	})
}

// eachBit calls fn(i) for every set bit i of b with lo <= i < hi, in
// ascending order. Only the words overlapping the range are read.
func eachBit(b []uint64, lo, hi uint64, fn func(i uint64)) {
	for w := lo >> 6; w<<6 < hi; w++ {
		x := b[w]
		if w == lo>>6 {
			x &= ^uint64(0) << (lo & 63)
		}
		if (w+1)<<6 > hi {
			x &= 1<<(hi&63) - 1
		}
		for ; x != 0; x &= x - 1 {
			fn(w<<6 + uint64(bits.TrailingZeros64(x)))
		}
	}
}
