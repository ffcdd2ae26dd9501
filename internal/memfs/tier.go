package memfs

import (
	"fmt"
	"sort"

	"repro/internal/buddy"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tier"
)

// AttachTier connects a tier migration engine to the file system and
// adds a fast-tier block region [fastBase, fastBase+fastFrames) next
// to the mount's original (slow-tier) region. From then on every file
// frame is hotness-tracked, allocation prefers the fast region while
// the engine's fast budget lasts, and the owners index below lets a
// backend resolve any frame to its inode for migration. Must be called
// on a freshly mounted (empty) file system.
//
// The FS itself implements tier.Backend with single-page extent-split
// migration — the FOM configuration's O(page) move. The core layer
// overrides the backend with whole-extent migration because its range
// translations cannot address a split.
func (fs *FS) AttachTier(eng *tier.Engine, fastBase mem.Frame, fastFrames uint64) error {
	if fs.tier != nil {
		return fmt.Errorf("memfs %s: tier engine already attached", fs.name)
	}
	if len(fs.inodes) != 1 { // just the root
		return fmt.Errorf("memfs %s: AttachTier on non-empty file system", fs.name)
	}
	if !fs.memory.Valid(fastBase, fastFrames) {
		return fmt.Errorf("memfs %s: fast region [%d,+%d) outside physical memory", fs.name, fastBase, fastFrames)
	}
	fastBud, err := buddy.New(fs.clock, fs.params, fastBase, fastFrames)
	if err != nil {
		return fmt.Errorf("memfs %s: fast region: %w", fs.name, err)
	}
	lo := min(fs.bud.Base(), fastBase)
	hi := max(fs.bud.Base()+mem.Frame(fs.bud.Size()), fastBase+mem.Frame(fastFrames))
	owners, err := mem.NewFrameTable[*Inode](lo, uint64(hi-lo))
	if err != nil {
		return fmt.Errorf("memfs %s: owner index: %w", fs.name, err)
	}
	fs.tier = eng
	fs.fastBud = fastBud
	fs.owners = owners
	eng.SetBackend(fs)
	m := sim.MachineOf(fs.clock, fs.params)
	m.RegisterInvariants("memfs-tier:"+fs.name, fs.checkTier)
	m.RegisterInvariants("tier:"+fs.name, eng.CheckInvariants)
	return nil
}

// Owner resolves a block frame to the inode whose extent covers it
// (nil when untracked or tiering is off).
func (fs *FS) Owner(f mem.Frame) *Inode {
	return fs.owners.Get(f)
}

// budFor routes a frame to the buddy allocator owning it.
func (fs *FS) budFor(f mem.Frame) *buddy.Allocator {
	if fb := fs.fastBud; fb != nil && f >= fb.Base() && uint64(f-fb.Base()) < fb.Size() {
		return fb
	}
	return fs.bud
}

// tierBud returns the allocator of the given tier (fast = the attached
// DRAM region, slow = the mount's original region), or nil.
func (fs *FS) tierBud(kind mem.RegionKind) *buddy.Allocator {
	if kind == mem.DRAM {
		return fs.fastBud
	}
	return fs.bud
}

// allocRun allocates count contiguous frames, preferring the tier the
// engine suggests and falling back to the other region before
// reporting failure. Without tiering it is exactly fs.bud.AllocRun.
func (fs *FS) allocRun(count uint64) (buddy.Run, error) {
	if fs.fastBud == nil {
		return fs.bud.AllocRun(count)
	}
	first, second := fs.bud, fs.fastBud
	if fs.tier.PreferFast() {
		first, second = fs.fastBud, fs.bud
	}
	r, err := first.AllocRun(count)
	if err != nil {
		return second.AllocRun(count)
	}
	return r, err
}

// allocFrame is the single-frame form of allocRun.
func (fs *FS) allocFrame() (mem.Frame, error) {
	if fs.fastBud == nil {
		return fs.bud.AllocFrame()
	}
	first, second := fs.bud, fs.fastBud
	if fs.tier.PreferFast() {
		first, second = fs.fastBud, fs.bud
	}
	f, err := first.AllocFrame()
	if err != nil {
		return second.AllocFrame()
	}
	return f, err
}

// freeRun returns a run to the buddy owning it.
func (fs *FS) freeRun(r buddy.Run) error {
	return fs.budFor(r.Start).FreeRun(r)
}

// trackRun indexes and hotness-tracks the frames of a newly inserted
// extent run. No-op without tiering.
func (fs *FS) trackRun(ino *Inode, start mem.Frame, count uint64) {
	if fs.tier == nil {
		return
	}
	for i := uint64(0); i < count; i++ {
		f := start + mem.Frame(i)
		fs.owners.Set(f, ino)
		fs.tier.Track(f)
	}
}

// untrackRun drops the index and hotness state of a freed extent run.
func (fs *FS) untrackRun(start mem.Frame, count uint64) {
	if fs.tier == nil {
		return
	}
	for i := uint64(0); i < count; i++ {
		f := start + mem.Frame(i)
		fs.owners.Set(f, nil)
		fs.tier.Untrack(f)
	}
}

// record samples an access for the hotness tracker.
func (fs *FS) record(f mem.Frame, write bool) {
	if fs.tier != nil {
		fs.tier.Record(f, write)
	}
}

// MigrateFrame implements tier.Backend: move one file page into the
// target tier, splitting its extent when the page sits inside a larger
// run. This is the per-page translation story — FOM's object map
// addresses pages individually, so a move costs O(page) plus an
// extent-map split, never a whole-extent copy.
func (fs *FS) MigrateFrame(cur *sim.CPU, f mem.Frame, to mem.RegionKind) (uint64, bool) {
	ino := fs.owners.Get(f)
	if ino == nil || fs.memory.Kind(f) == to {
		return 0, false
	}
	tb := fs.tierBud(to)
	if tb == nil {
		return 0, false
	}
	nf, err := tb.AllocFrame()
	if err != nil {
		return 0, false
	}
	// Locate the covering extent and the logical page.
	idx, ok := ino.extentIndexFor(f)
	if !ok {
		// Owners said the frame is live but no extent covers it —
		// genuine index corruption.
		panic(fmt.Sprintf("memfs %s: tier owner index points at frame %d without an extent", fs.name, f))
	}
	e := ino.extents[idx]
	page := e.Logical + uint64(f-e.Start)

	fs.memory.CopyFramesOn(cur, nf, f, 1)
	if e.Count > 1 {
		tier.AddSplit()
	}
	ino.removePageFromExtent(idx, page)
	ino.insertExtent(ExtentRun{Logical: page, Start: nf, Count: 1})
	// insertExtent's trackRun hook indexed nf, but the engine must see
	// a move, not a fresh allocation: undo the owner entry and re-key.
	fs.tier.Moved(f, nf)
	fs.owners.Set(f, nil)

	// Scrub the migrated-away frame before its buddy recycles it.
	fs.memory.ZeroFramesOn(cur, f, 1)
	if ferr := fs.budFor(f).FreeRange(f, 1); ferr != nil {
		panic(fmt.Sprintf("memfs %s: tier migration free: %v", fs.name, ferr))
	}
	fs.stats.Counter("tier_page_moves").Inc()
	return 1, true
}

// MigrateExtent moves a whole extent run of ino into the target tier,
// keeping its logical placement: the core layer's range translations
// address extents, so a single hot page drags its entire run across —
// the O(extent) cost the paper's O(1)-vs-O(n) tension predicts. The
// replacement run is a single contiguous allocation (aligned by the
// buddy's power-of-two covering block, so chunk-aligned inputs stay
// chunk-aligned). Returns the relocated run.
func (fs *FS) MigrateExtent(cur *sim.CPU, ino *Inode, e ExtentRun, to mem.RegionKind) (ExtentRun, bool) {
	tb := fs.tierBud(to)
	if tb == nil {
		return ExtentRun{}, false
	}
	idx := -1
	for i, x := range ino.extents {
		if x.Logical == e.Logical && x.Start == e.Start && x.Count == e.Count {
			idx = i
			break
		}
	}
	if idx < 0 {
		return ExtentRun{}, false
	}
	run, err := tb.AllocRun(e.Count)
	if err != nil {
		return ExtentRun{}, false
	}
	fs.memory.CopyFramesOn(cur, run.Start, e.Start, e.Count)
	fs.clock.Advance(fs.params.ExtentOp)
	ino.extents[idx].Start = run.Start
	if fs.tier != nil {
		for i := uint64(0); i < e.Count; i++ {
			old, new := e.Start+mem.Frame(i), run.Start+mem.Frame(i)
			fs.tier.Moved(old, new)
			fs.owners.Set(old, nil)
			fs.owners.Set(new, ino)
		}
	}
	// Scrub and free the migrated-away run.
	fs.memory.ZeroFramesOn(cur, e.Start, e.Count)
	if ferr := fs.budFor(e.Start).FreeRun(buddy.Run{Start: e.Start, Count: e.Count}); ferr != nil {
		panic(fmt.Sprintf("memfs %s: tier extent migration free: %v", fs.name, ferr))
	}
	fs.stats.Counter("tier_extent_moves").Inc()
	return ino.extents[idx], true
}

// extentIndexFor finds the extent covering physical frame f (host-side
// index lookup; the simulated extent charge is FindExtent's).
func (ino *Inode) extentIndexFor(f mem.Frame) (int, bool) {
	for i, e := range ino.extents {
		if f >= e.Start && f < e.Start+mem.Frame(e.Count) {
			return i, true
		}
	}
	return 0, false
}

// removePageFromExtent carves one logical page out of the extent at
// idx, charging one extent operation per resulting run. The caller
// re-inserts the page's replacement.
func (ino *Inode) removePageFromExtent(idx int, page uint64) {
	fs := ino.fs
	e := ino.extents[idx]
	fs.clock.Advance(fs.params.ExtentOp)
	switch {
	case e.Count == 1:
		ino.extents = append(ino.extents[:idx], ino.extents[idx+1:]...)
	case page == e.Logical:
		ino.extents[idx].Logical++
		ino.extents[idx].Start++
		ino.extents[idx].Count--
	case page == e.Logical+e.Count-1:
		ino.extents[idx].Count--
	default: // split into head + tail
		head := uint64(page - e.Logical)
		ino.extents[idx].Count = head
		tail := ExtentRun{
			Logical: page + 1,
			Start:   e.Start + mem.Frame(head+1),
			Count:   e.Count - head - 1,
		}
		ino.extents = append(ino.extents, ExtentRun{})
		copy(ino.extents[idx+2:], ino.extents[idx+1:])
		ino.extents[idx+1] = tail
		fs.clock.Advance(fs.params.ExtentOp)
	}
}

// checkTier audits the tier owner index against the extent lists: they
// must describe exactly the same frame set, and every owned frame must
// be tracked by the engine in the tier its region says.
func (fs *FS) checkTier() error {
	if fs.tier == nil {
		return nil
	}
	want := 0
	inos := make([]uint64, 0, len(fs.inodes))
	for ino := range fs.inodes {
		inos = append(inos, ino)
	}
	sort.Slice(inos, func(i, j int) bool { return inos[i] < inos[j] })
	for _, n := range inos {
		ino := fs.inodes[n]
		for _, e := range ino.extents {
			for f := e.Start; f < e.Start+mem.Frame(e.Count); f++ {
				want++
				if fs.owners.Get(f) != ino {
					return fmt.Errorf("memfs %s: frame %d belongs to inode %d but owner index disagrees", fs.name, f, ino.ino)
				}
				if _, tracked := fs.tier.TierOf(f); !tracked {
					return fmt.Errorf("memfs %s: frame %d owned by inode %d but not tier-tracked", fs.name, f, ino.ino)
				}
			}
		}
	}
	entries := 0
	fs.owners.Visit(func(mem.Frame, *Inode) bool {
		entries++
		return true
	})
	if want != entries {
		return fmt.Errorf("memfs %s: owner index holds %d frames, extents describe %d", fs.name, entries, want)
	}
	if fs.fastBud != nil {
		if err := fs.fastBud.CheckInvariants(); err != nil {
			return fmt.Errorf("memfs %s: fast region: %w", fs.name, err)
		}
	}
	return nil
}
