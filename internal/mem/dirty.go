package mem

import "math/bits"

// Dirty tracking supports incremental checkpointing: with tracking on,
// the memory records every frame whose observable contents may have
// changed — writes (including copy destinations) and drops of
// materialized frames (zeroing, epoch erases, crashes). A differential
// snapshot then captures only these frames against a base image.
//
// The set lives in the frame store (store.go): one dirty word per
// 64-frame leaf and a running count. Tracking is opt-in and off by
// default: the hot paths pay one flag load when it is off, and the set
// is host-side bookkeeping only — maintaining it advances no simulated
// clock. The set is conservative (a write of identical bytes still
// dirties the frame) but never misses a change, which is the direction
// that keeps differential restores sound.

// SetDirtyTracking turns dirty-frame tracking on or off. Turning it on
// starts from an empty dirty set; turning it off discards the set.
func (m *Memory) SetDirtyTracking(on bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !on {
		m.clearDirtyLocked()
	}
	m.tracking.Store(on)
}

// ResetDirty clears the dirty set, beginning a new checkpoint epoch.
// It is a no-op while tracking is off.
func (m *Memory) ResetDirty() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clearDirtyLocked()
}

// clearDirtyLocked clears every dirty bit and unlinks the leaves that
// held nothing else. The set is empty while tracking is off, so this
// visits the linked leaves only when it has bits to clear. Caller
// holds mu.
func (m *Memory) clearDirtyLocked() {
	if m.dirtyN.Load() == 0 {
		return
	}
	m.eachLeaf(0, Frame(m.total), func(r leafRef) {
		if r.l.dirty.Load() != 0 {
			r.l.dirty.Store(0)
			m.unlinkLeaf(r)
		}
	})
	m.dirtyN.Store(0)
}

// DirtyFrames returns the frames dirtied since the last ResetDirty, in
// ascending order. Empty while tracking is off.
func (m *Memory) DirtyFrames() []Frame {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.dirtyN.Load()
	out := make([]Frame, 0, n)
	if n == 0 {
		return out
	}
	m.eachLeaf(0, Frame(m.total), func(r leafRef) {
		for x := r.l.dirty.Load(); x != 0; x &= x - 1 {
			out = append(out, r.base+Frame(bits.TrailingZeros64(x)))
		}
	})
	return out
}

// MaterializedFrameList returns every frame that currently has a
// backing array, in ascending order. Checkpoint tooling uses it to
// capture a full base image without scanning the whole (sparse)
// address space.
func (m *Memory) MaterializedFrameList() []Frame {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Frame, 0, m.nFrames)
	m.eachLeaf(0, Frame(m.total), func(r leafRef) {
		for x := r.l.mat; x != 0; x &= x - 1 {
			out = append(out, r.base+Frame(bits.TrailingZeros64(x)))
		}
	})
	return out
}
