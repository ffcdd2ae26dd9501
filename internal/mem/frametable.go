package mem

import "fmt"

// Frame-table geometry: one directory entry per ftDirSpan frames, one
// mid entry per ftLeafSpan frames, and ftLeafSpan-entry leaves.
const (
	ftLeafShift = 6
	ftDirShift  = 12
	ftLeafSpan  = 1 << ftLeafShift
	ftDirSpan   = 1 << ftDirShift
	ftMidSpan   = ftDirSpan / ftLeafSpan
)

// MaxTableFrames is the largest frame count a FrameTable covers. Users
// that store frame offsets in 32 bits, with ^uint32(0) meaning none,
// rely on every offset staying below that value.
const MaxTableFrames = 1<<32 - 2

// FrameTable is a per-frame side table over the frames [base,
// base+count): the host's dense mem_map, holding one T per frame, with
// the zero T meaning "no entry".
//
// It is a three-level radix: a directory entry per 4,096 frames, a mid
// level per 64 frames and 64-entry leaves. The levels are aligned to
// absolute frame numbers, and each frame's entry is stored at the
// highest level its number is aligned to: frames aligned to 4,096 live
// in the directory, frames aligned to 64 in a mid node, and only the
// rest in leaves. Naturally aligned block heads of 64 frames or more
// (buddy blocks of order 6 and up) therefore never need a leaf.
//
// The directory is allocated up front; mid nodes and leaves on the
// first non-zero write below them. The table owns its levels and never
// frees them, so a steady-state workload that keeps reusing the same
// frames allocates nothing. Like a map, a table is not safe for
// concurrent use.
type FrameTable[T comparable] struct {
	origin Frame // base rounded down to a directory boundary
	lo, hi Frame // the covered frames [lo, hi)
	dir    []ftDirEntry[T]
}

type ftDirEntry[T comparable] struct {
	val T // the entry of the directory-aligned frame
	mid *ftMid[T]
}

// ftMid covers one directory entry's 4,096 frames. val[i-1] holds the
// entry of the frame that starts leaf i; the frame starting leaf 0
// lives in the directory, and every leaf's slot 0 is unused. Dropping
// val[0] keeps a pointer-holding mid node inside the next smaller
// allocation size class once the runtime's malloc header is added.
type ftMid[T comparable] struct {
	leaf [ftMidSpan]*[ftLeafSpan]T
	val  [ftMidSpan - 1]T
}

// NewFrameTable returns an empty table over [base, base+count). It
// returns an error for an empty range or one of more than
// MaxTableFrames frames.
func NewFrameTable[T comparable](base Frame, count uint64) (FrameTable[T], error) {
	if count == 0 || count > MaxTableFrames {
		return FrameTable[T]{}, fmt.Errorf("mem: frame table of %d frames (want 1 to %d)", count, uint64(MaxTableFrames))
	}
	if uint64(base) > ^uint64(0)-count {
		return FrameTable[T]{}, fmt.Errorf("mem: frame table [%d, +%d) wraps", base, count)
	}
	origin := base &^ (ftDirSpan - 1)
	hi := base + Frame(count)
	n := (uint64(hi-origin) + ftDirSpan - 1) >> ftDirShift
	return FrameTable[T]{origin: origin, lo: base, hi: hi, dir: make([]ftDirEntry[T], n)}, nil
}

// Get returns f's entry: the zero T when f has none or lies outside
// the range. It never allocates.
func (t *FrameTable[T]) Get(f Frame) T {
	var zero T
	if f < t.lo || f >= t.hi {
		return zero
	}
	off := uint64(f - t.origin)
	d := &t.dir[off>>ftDirShift]
	if off&(ftDirSpan-1) == 0 {
		return d.val
	}
	m := d.mid
	if m == nil {
		return zero
	}
	i := (off >> ftLeafShift) & (ftMidSpan - 1)
	if off&(ftLeafSpan-1) == 0 {
		return m.val[i-1]
	}
	l := m.leaf[i]
	if l == nil {
		return zero
	}
	return l[off&(ftLeafSpan-1)]
}

// Ptr returns the address of f's entry, allocating the levels above it
// on first use. It panics when f lies outside the range: a write there
// is a caller bug, as an out-of-range slice index is.
func (t *FrameTable[T]) Ptr(f Frame) *T {
	if f < t.lo || f >= t.hi {
		t.outOfRange(f)
	}
	off := uint64(f - t.origin)
	d := &t.dir[off>>ftDirShift]
	if off&(ftDirSpan-1) == 0 {
		return &d.val
	}
	m := d.mid
	if m == nil {
		m = new(ftMid[T])
		d.mid = m
	}
	i := (off >> ftLeafShift) & (ftMidSpan - 1)
	if off&(ftLeafSpan-1) == 0 {
		return &m.val[i-1]
	}
	l := m.leaf[i]
	if l == nil {
		l = new([ftLeafSpan]T)
		m.leaf[i] = l
	}
	return &l[off&(ftLeafSpan-1)]
}

func (t *FrameTable[T]) outOfRange(f Frame) {
	panic(fmt.Sprintf("mem: frame %d outside the frame table's range [%d, %d)", f, t.lo, t.hi))
}

// Set stores v as f's entry. Storing the zero T clears the entry
// without allocating; storing any other value panics when f lies
// outside the range.
func (t *FrameTable[T]) Set(f Frame, v T) {
	var zero T
	if v == zero {
		if t.Get(f) != zero {
			*t.Ptr(f) = zero
		}
		return
	}
	*t.Ptr(f) = v
}

// Visit calls fn for every non-zero entry in ascending frame order,
// stopping early when fn returns false. Its cost is proportional to
// the directory plus the allocated levels, not to the range.
func (t *FrameTable[T]) Visit(fn func(f Frame, v T) bool) {
	var zero T
	for di := range t.dir {
		d := &t.dir[di]
		f0 := t.origin + Frame(di)<<ftDirShift
		if d.val != zero && !fn(f0, d.val) {
			return
		}
		m := d.mid
		if m == nil {
			continue
		}
		for i := range m.leaf {
			fm := f0 + Frame(i)<<ftLeafShift
			if i > 0 && m.val[i-1] != zero && !fn(fm, m.val[i-1]) {
				return
			}
			l := m.leaf[i]
			if l == nil {
				continue
			}
			for j := 1; j < ftLeafSpan; j++ {
				if l[j] != zero && !fn(fm+Frame(j), l[j]) {
					return
				}
			}
		}
	}
}
