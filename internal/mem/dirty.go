package mem

import "slices"

// Dirty tracking supports incremental checkpointing: with tracking on,
// the memory records every frame whose observable contents may have
// changed — writes (including copy destinations) and drops of
// materialized frames (zeroing, epoch erases, crashes). A differential
// snapshot then captures only these frames against a base image.
//
// Tracking is opt-in and off by default: the hot paths pay a single
// nil check when it is off, and the set is host-side bookkeeping only —
// maintaining it advances no simulated clock. The set is conservative
// (a write of identical bytes still dirties the frame) but never
// misses a change, which is the direction that keeps differential
// restores sound.

// SetDirtyTracking turns dirty-frame tracking on or off. Turning it on
// starts from an empty dirty set; turning it off discards the set.
func (m *Memory) SetDirtyTracking(on bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if on {
		if m.dirty == nil {
			m.dirty = make(map[Frame]struct{})
		}
		return
	}
	m.dirty = nil
}

// DirtyTracking reports whether dirty-frame tracking is on.
func (m *Memory) DirtyTracking() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dirty != nil
}

// ResetDirty clears the dirty set, beginning a new checkpoint epoch.
// It is a no-op while tracking is off.
func (m *Memory) ResetDirty() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dirty != nil {
		m.dirty = make(map[Frame]struct{})
	}
}

// DirtyFrames returns the frames dirtied since the last ResetDirty, in
// ascending order. Empty while tracking is off.
func (m *Memory) DirtyFrames() []Frame {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Frame, 0, len(m.dirty))
	for f := range m.dirty {
		out = append(out, f)
	}
	slices.Sort(out)
	return out
}

// DirtyCount returns the size of the dirty set.
func (m *Memory) DirtyCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.dirty)
}

// MaterializedFrameList returns every frame that currently has a
// backing array, in ascending order. Checkpoint tooling uses it to
// capture a full base image without scanning the whole (sparse)
// address space.
func (m *Memory) MaterializedFrameList() []Frame {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Frame, 0, len(m.data))
	for f := range m.data {
		out = append(out, f)
	}
	slices.Sort(out)
	return out
}
