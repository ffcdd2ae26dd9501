// Package memfs implements the memory file systems the paper builds on:
// a page-granular tmpfs flavour and an extent-granular, persistent PMFS
// flavour. Both store file data directly in simulated physical frames
// (there is no separate page cache — the file system *is* the memory),
// which is exactly the property file-only memory exploits.
//
// The two allocation policies reproduce the paper's comparison:
//
//   - PerPage (tmpfs): each file page is allocated on first use, one
//     frame at a time, like shmem_getpage. Costs are per page.
//   - Extent (PMFS/ext4-style): file space is allocated as long
//     contiguous extents, so metadata and allocation costs are per
//     extent, not per page — the file-system half of O(1) memory.
//
// Files carry file-grain attributes the paper relies on: a protection
// mode for the *whole* file, a durability mark (volatile files vanish
// on crash/remount, persistent ones survive if the file system lives in
// NVM), and a discardable flag that lets the OS reclaim whole files
// under memory pressure (transcendent-memory style).
package memfs

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/buddy"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/pagetable"
	"repro/internal/sim"
	"repro/internal/tier"
)

// AllocPolicy selects how file space maps to frames.
type AllocPolicy int

const (
	// PerPage allocates one frame per file page on demand (tmpfs).
	PerPage AllocPolicy = iota
	// Extent allocates contiguous frame runs covering many pages
	// (PMFS). Preallocation (Truncate) reserves the whole file.
	Extent
)

// String names the policy.
func (p AllocPolicy) String() string {
	switch p {
	case PerPage:
		return "per-page"
	case Extent:
		return "extent"
	default:
		return fmt.Sprintf("AllocPolicy(%d)", int(p))
	}
}

// Durability says whether a file survives crash + remount.
type Durability int

const (
	// Volatile files are deleted at remount after a crash.
	Volatile Durability = iota
	// Persistent files survive crash + remount (their frames must be
	// in NVM for contents to be intact).
	Persistent
)

// String names the durability class.
func (d Durability) String() string {
	if d == Persistent {
		return "persistent"
	}
	return "volatile"
}

// ExtentRun is a contiguous mapping of file pages to frames.
type ExtentRun struct {
	Logical uint64 // first file page index covered
	Start   mem.Frame
	Count   uint64 // pages
}

// End returns the first file page past the extent.
func (e ExtentRun) End() uint64 { return e.Logical + e.Count }

// Inode is one file or directory.
type Inode struct {
	fs   *FS
	ino  uint64
	dir  bool
	name string // last path component (diagnostic only)

	// File state.
	size    uint64 // bytes
	extents []ExtentRun
	mode    pagetable.Flags
	dur     Durability
	discard bool

	// Lifecycle: the inode's storage is freed when both counts are 0.
	nlink int // directory references
	refs  int // open handles and mappings

	// Directory state.
	children map[string]*Inode

	// parent is the containing directory (nil only for the root;
	// anonymous temp files hang off the root for quota accounting).
	parent *Inode

	// quotaFrames, on a directory, caps the frames allocated by files
	// beneath it (0 = unlimited). usageFrames tracks the current
	// subtree allocation — the paper's "file-system controls over
	// memory allocation, such as quotas".
	quotaFrames uint64
	usageFrames uint64
}

// QuotaError reports an allocation rejected by a directory quota.
type QuotaError struct {
	Dir   string
	Quota uint64
	Used  uint64
	Want  uint64
}

// Error implements error.
func (e *QuotaError) Error() string {
	return fmt.Sprintf("memfs: quota exceeded in %q: %d/%d frames used, %d more requested",
		e.Dir, e.Used, e.Quota, e.Want)
}

// Ino returns the inode number.
func (i *Inode) Ino() uint64 { return i.ino }

// IsDir reports whether the inode is a directory.
func (i *Inode) IsDir() bool { return i.dir }

// Size returns the file size in bytes.
func (i *Inode) Size() uint64 { return i.size }

// Pages returns the file size in whole 4 KiB pages.
func (i *Inode) Pages() uint64 {
	return (i.size + mem.FrameSize - 1) / mem.FrameSize
}

// Mode returns the file's whole-file protection — the paper's
// coarse-grain permission model ("permission is granted for the whole
// file and not individual blocks").
func (i *Inode) Mode() pagetable.Flags { return i.mode }

// Durability returns the file's durability class.
func (i *Inode) Durability() Durability { return i.dur }

// Discardable reports whether the OS may delete the file under memory
// pressure.
func (i *Inode) Discardable() bool { return i.discard }

// Extents returns a copy of the file's extent list, sorted by logical
// page.
func (i *Inode) Extents() []ExtentRun {
	out := make([]ExtentRun, len(i.extents))
	copy(out, i.extents)
	return out
}

// AllocatedPages returns the number of pages with backing frames.
func (i *Inode) AllocatedPages() uint64 {
	var n uint64
	for _, e := range i.extents {
		n += e.Count
	}
	return n
}

// FS is one mounted memory file system.
type FS struct {
	name   string
	policy AllocPolicy

	clock  *sim.Clock
	params *sim.Params
	memory *mem.Memory
	bud    *buddy.Allocator

	// Tiering (nil/empty unless AttachTier ran): fastBud is a second
	// block region over the fast tier, tier the migration engine, and
	// owners an index from block frame to owning inode so backends can
	// resolve migration candidates, over both block regions.
	tier    *tier.Engine
	fastBud *buddy.Allocator
	owners  mem.FrameTable[*Inode]

	root    *Inode
	inodes  map[uint64]*Inode
	nextIno uint64

	// discardables tracks files eligible for pressure reclamation, in
	// insertion order.
	discardables []*Inode

	stats *metrics.Set
	// Per-operation counters, resolved on first use.
	cCreates, cExtentAllocs, cPageAllocs metrics.Lazy
}

// New mounts a file system whose blocks come from the frame range
// [base, base+frames), typically an NVM region for PMFS and DRAM for
// tmpfs.
func New(name string, policy AllocPolicy, clock *sim.Clock, params *sim.Params, memory *mem.Memory, base mem.Frame, frames uint64) (*FS, error) {
	if !memory.Valid(base, frames) {
		return nil, fmt.Errorf("memfs %s: block range [%d,+%d) outside physical memory", name, base, frames)
	}
	bud, err := buddy.New(clock, params, base, frames)
	if err != nil {
		return nil, fmt.Errorf("memfs %s: %w", name, err)
	}
	fs := &FS{
		name:    name,
		policy:  policy,
		clock:   clock,
		params:  params,
		memory:  memory,
		bud:     bud,
		inodes:  make(map[uint64]*Inode),
		nextIno: 1,
		stats:   metrics.NewSet(),
	}
	fs.root = fs.newInode("", true, nil)
	fs.root.nlink = 1
	// Self-register with the machine so Machine.CheckInvariants audits
	// this file system alongside every other subsystem.
	machine := sim.MachineOf(clock, params)
	machine.RegisterInvariants("memfs:"+name, fs.CheckInvariants)
	machine.RegisterStats("memfs:"+name, fs.stats)
	return fs, nil
}

// FreeFrames returns the number of unallocated block frames.
func (fs *FS) FreeFrames() uint64 { return fs.bud.FreeFrames() }

// TotalFrames returns the size of the block region.
func (fs *FS) TotalFrames() uint64 { return fs.bud.Size() }

// Stats exposes counters: "creates", "opens", "unlinks", "page_allocs",
// "extent_allocs", "discards", "remounts".
func (fs *FS) Stats() *metrics.Set { return fs.stats }

func (fs *FS) newInode(name string, dir bool, parent *Inode) *Inode {
	ino := fs.nextIno
	fs.nextIno++
	i := &Inode{
		fs:     fs,
		ino:    ino,
		dir:    dir,
		name:   name,
		parent: parent,
		mode:   pagetable.FlagRead | pagetable.FlagWrite | pagetable.FlagUser,
	}
	if dir {
		i.children = make(map[string]*Inode)
	}
	fs.inodes[ino] = i
	return i
}

// splitPath returns the cleaned components of an absolute path.
func splitPath(path string) ([]string, error) {
	if !strings.HasPrefix(path, "/") {
		return nil, fmt.Errorf("memfs: path %q is not absolute", path)
	}
	var comps []string
	for _, c := range strings.Split(path, "/") {
		switch c {
		case "", ".":
		case "..":
			return nil, fmt.Errorf("memfs: path %q contains ..", path)
		default:
			comps = append(comps, c)
		}
	}
	return comps, nil
}

// walk resolves the directory holding the last component. Each
// component traversal charges one directory operation.
func (fs *FS) walk(comps []string) (*Inode, error) {
	dir := fs.root
	for _, c := range comps {
		fs.clock.Advance(fs.params.DirOp)
		child, ok := dir.children[c]
		if !ok {
			return nil, fmt.Errorf("memfs %s: %q not found", fs.name, c)
		}
		if !child.dir {
			return nil, fmt.Errorf("memfs %s: %q is not a directory", fs.name, c)
		}
		dir = child
	}
	return dir, nil
}

// Mkdir creates a directory. Parent directories must exist.
func (fs *FS) Mkdir(path string) error {
	comps, err := splitPath(path)
	if err != nil {
		return err
	}
	if len(comps) == 0 {
		return fmt.Errorf("memfs %s: mkdir of root", fs.name)
	}
	dir, err := fs.walk(comps[:len(comps)-1])
	if err != nil {
		return err
	}
	name := comps[len(comps)-1]
	if _, exists := dir.children[name]; exists {
		return fmt.Errorf("memfs %s: %q exists", fs.name, path)
	}
	fs.clock.Advance(fs.params.InodeOp + fs.params.DirOp)
	child := fs.newInode(name, true, dir)
	child.nlink = 1
	dir.children[name] = child
	return nil
}

// CreateOptions configure Create.
type CreateOptions struct {
	// Mode is the whole-file protection; zero means read+write+user.
	Mode pagetable.Flags
	// Durability selects crash behaviour (default Volatile).
	Durability Durability
	// Discardable marks the file reclaimable under memory pressure.
	Discardable bool
}

// Create makes a new empty file and returns an open handle (refs=1).
func (fs *FS) Create(path string, opts CreateOptions) (*File, error) {
	comps, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	if len(comps) == 0 {
		return nil, fmt.Errorf("memfs %s: create of root", fs.name)
	}
	dir, err := fs.walk(comps[:len(comps)-1])
	if err != nil {
		return nil, err
	}
	name := comps[len(comps)-1]
	if _, exists := dir.children[name]; exists {
		return nil, fmt.Errorf("memfs %s: %q exists", fs.name, path)
	}
	fs.clock.Advance(fs.params.InodeOp + fs.params.DirOp)
	ino := fs.newInode(name, false, dir)
	fs.applyCreateOptions(ino, opts)
	ino.nlink = 1
	ino.refs = 1
	dir.children[name] = ino
	fs.cCreates.Of(fs.stats, "creates").Inc()
	return &File{inode: ino}, nil
}

// CreateTemp makes an anonymous file with no directory entry — the
// backing object for volatile heap and stack segments in file-only
// memory. It is freed when its last handle closes.
func (fs *FS) CreateTemp(tag string, opts CreateOptions) (*File, error) {
	fs.clock.Advance(fs.params.InodeOp)
	ino := fs.newInode(tag, false, fs.root)
	fs.applyCreateOptions(ino, opts)
	ino.refs = 1
	fs.cCreates.Of(fs.stats, "creates").Inc()
	return &File{inode: ino}, nil
}

func (fs *FS) applyCreateOptions(ino *Inode, opts CreateOptions) {
	if opts.Mode != 0 {
		ino.mode = opts.Mode
	}
	ino.dur = opts.Durability
	if opts.Discardable {
		ino.discard = true
		fs.discardables = append(fs.discardables, ino)
	}
}

// Open returns a handle to an existing file.
func (fs *FS) Open(path string) (*File, error) {
	ino, err := fs.lookup(path)
	if err != nil {
		return nil, err
	}
	if ino.dir {
		return nil, fmt.Errorf("memfs %s: %q is a directory", fs.name, path)
	}
	fs.clock.Advance(fs.params.InodeOp)
	ino.refs++
	fs.stats.Counter("opens").Inc()
	return &File{inode: ino}, nil
}

func (fs *FS) lookup(path string) (*Inode, error) {
	comps, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	if len(comps) == 0 {
		return fs.root, nil
	}
	dir, err := fs.walk(comps[:len(comps)-1])
	if err != nil {
		return nil, err
	}
	fs.clock.Advance(fs.params.DirOp)
	ino, ok := dir.children[comps[len(comps)-1]]
	if !ok {
		return nil, fmt.Errorf("memfs %s: %q not found", fs.name, path)
	}
	return ino, nil
}

// Stat returns the inode for a path (directories included).
func (fs *FS) Stat(path string) (*Inode, error) {
	return fs.lookup(path)
}

// Unlink removes a file's directory entry. Storage is freed once the
// last open handle or mapping drops.
func (fs *FS) Unlink(path string) error {
	comps, err := splitPath(path)
	if err != nil {
		return err
	}
	if len(comps) == 0 {
		return fmt.Errorf("memfs %s: unlink of root", fs.name)
	}
	dir, err := fs.walk(comps[:len(comps)-1])
	if err != nil {
		return err
	}
	name := comps[len(comps)-1]
	ino, ok := dir.children[name]
	if !ok {
		return fmt.Errorf("memfs %s: %q not found", fs.name, path)
	}
	if ino.dir {
		if len(ino.children) > 0 {
			return fmt.Errorf("memfs %s: directory %q not empty", fs.name, path)
		}
		fs.clock.Advance(fs.params.DirOp + fs.params.InodeOp)
		delete(dir.children, name)
		delete(fs.inodes, ino.ino)
		return nil
	}
	fs.clock.Advance(fs.params.DirOp + fs.params.InodeOp)
	delete(dir.children, name)
	ino.nlink--
	fs.stats.Counter("unlinks").Inc()
	return fs.maybeFree(ino)
}

// Rename moves a file or directory to a new path. With quotas in
// force the allocation is re-accounted against the destination's
// parent chain; the move fails if the destination quota cannot absorb
// it.
func (fs *FS) Rename(oldPath, newPath string) error {
	oldComps, err := splitPath(oldPath)
	if err != nil {
		return err
	}
	newComps, err := splitPath(newPath)
	if err != nil {
		return err
	}
	if len(oldComps) == 0 || len(newComps) == 0 {
		return fmt.Errorf("memfs %s: rename involving root", fs.name)
	}
	oldDir, err := fs.walk(oldComps[:len(oldComps)-1])
	if err != nil {
		return err
	}
	oldName := oldComps[len(oldComps)-1]
	ino, ok := oldDir.children[oldName]
	if !ok {
		return fmt.Errorf("memfs %s: %q not found", fs.name, oldPath)
	}
	newDir, err := fs.walk(newComps[:len(newComps)-1])
	if err != nil {
		return err
	}
	newName := newComps[len(newComps)-1]
	if existing, exists := newDir.children[newName]; exists {
		if existing == ino {
			return nil
		}
		return fmt.Errorf("memfs %s: %q exists", fs.name, newPath)
	}
	if ino.dir {
		// Reject moving a directory into its own subtree.
		for d := newDir; d != nil; d = d.parent {
			if d == ino {
				return fmt.Errorf("memfs %s: cannot move %q into itself", fs.name, oldPath)
			}
		}
	}
	// Quota re-accounting: uncharge the old chain, charge the new one.
	pages := ino.subtreePages()
	fs.unchargeQuota(ino, pages)
	oldParent := ino.parent
	ino.parent = newDir
	if err := fs.chargeQuota(ino, pages); err != nil {
		ino.parent = oldParent
		if cerr := fs.chargeQuota(ino, pages); cerr != nil {
			return fmt.Errorf("memfs %s: rename rollback failed: %v (after %w)", fs.name, cerr, err)
		}
		return err
	}
	fs.clock.Advance(2 * fs.params.DirOp)
	delete(oldDir.children, oldName)
	newDir.children[newName] = ino
	ino.name = newName
	return nil
}

// subtreePages returns the allocated pages of a file, or of every file
// beneath a directory.
func (i *Inode) subtreePages() uint64 {
	if !i.dir {
		return i.AllocatedPages()
	}
	return i.usageFrames
}

// Link creates an additional directory entry (hard link) for an
// existing file. Both names refer to the same inode; storage is freed
// only when the last link and reference drop — the file-grain
// reference counting §3.1/§4.1 propose. Quota accounting stays with
// the inode's original parent directory (like group-less POSIX quota,
// usage follows the file, not its link names).
func (fs *FS) Link(oldPath, newPath string) error {
	ino, err := fs.lookup(oldPath)
	if err != nil {
		return err
	}
	if ino.dir {
		return fmt.Errorf("memfs %s: hard link to directory %q", fs.name, oldPath)
	}
	newComps, err := splitPath(newPath)
	if err != nil {
		return err
	}
	if len(newComps) == 0 {
		return fmt.Errorf("memfs %s: link at root", fs.name)
	}
	newDir, err := fs.walk(newComps[:len(newComps)-1])
	if err != nil {
		return err
	}
	newName := newComps[len(newComps)-1]
	if _, exists := newDir.children[newName]; exists {
		return fmt.Errorf("memfs %s: %q exists", fs.name, newPath)
	}
	fs.clock.Advance(fs.params.DirOp + fs.params.InodeOp)
	newDir.children[newName] = ino
	ino.nlink++
	return nil
}

// ReadDir lists the names in a directory, sorted.
func (fs *FS) ReadDir(path string) ([]string, error) {
	ino, err := fs.lookup(path)
	if err != nil {
		return nil, err
	}
	if !ino.dir {
		return nil, fmt.Errorf("memfs %s: %q is not a directory", fs.name, path)
	}
	names := make([]string, 0, len(ino.children))
	for name := range ino.children {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// maybeFree releases an inode's storage when fully unreferenced.
func (fs *FS) maybeFree(ino *Inode) error {
	if ino.nlink > 0 || ino.refs > 0 {
		return nil
	}
	if err := fs.freeExtents(ino); err != nil {
		return err
	}
	delete(fs.inodes, ino.ino)
	if ino.discard {
		fs.removeDiscardable(ino)
	}
	return nil
}

// SetQuota caps the frames allocated under a directory (0 removes the
// cap). Setting a quota below current usage is allowed: existing data
// stays, new allocations fail until usage drops.
func (fs *FS) SetQuota(path string, frames uint64) error {
	ino, err := fs.lookup(path)
	if err != nil {
		return err
	}
	if !ino.dir {
		return fmt.Errorf("memfs %s: quota target %q is not a directory", fs.name, path)
	}
	fs.clock.Advance(fs.params.InodeOp)
	ino.quotaFrames = frames
	return nil
}

// QuotaUsage returns (used, quota) for a directory.
func (fs *FS) QuotaUsage(path string) (used, quota uint64, err error) {
	ino, err := fs.lookup(path)
	if err != nil {
		return 0, 0, err
	}
	if !ino.dir {
		return 0, 0, fmt.Errorf("memfs %s: %q is not a directory", fs.name, path)
	}
	return ino.usageFrames, ino.quotaFrames, nil
}

// chargeQuota walks the parent chain checking and recording n frames
// of new allocation. The chain is short (directory depth), so this is
// O(depth), never O(pages).
func (fs *FS) chargeQuota(ino *Inode, n uint64) error {
	for d := ino.parent; d != nil; d = d.parent {
		if d.quotaFrames != 0 && d.usageFrames+n > d.quotaFrames {
			return &QuotaError{Dir: d.name, Quota: d.quotaFrames, Used: d.usageFrames, Want: n}
		}
	}
	for d := ino.parent; d != nil; d = d.parent {
		d.usageFrames += n
	}
	return nil
}

// unchargeQuota releases n frames along the parent chain.
func (fs *FS) unchargeQuota(ino *Inode, n uint64) {
	for d := ino.parent; d != nil; d = d.parent {
		if d.usageFrames < n {
			d.usageFrames = 0
			continue
		}
		d.usageFrames -= n
	}
}

func (fs *FS) freeExtents(ino *Inode) error {
	fs.unchargeQuota(ino, ino.AllocatedPages())
	for _, e := range ino.extents {
		// O(1) security erase per extent (the paper's constant-time
		// erase requirement for reused volatile memory).
		fs.memory.EraseRangeEpoch(e.Start, e.Count)
		fs.untrackRun(e.Start, e.Count)
		if err := fs.freeRun(buddy.Run{Start: e.Start, Count: e.Count}); err != nil {
			return fmt.Errorf("memfs %s: freeing extent of inode %d: %w", fs.name, ino.ino, err)
		}
	}
	ino.extents = nil
	return nil
}

func (fs *FS) removeDiscardable(ino *Inode) {
	for i, d := range fs.discardables {
		if d == ino {
			fs.discardables = append(fs.discardables[:i], fs.discardables[i+1:]...)
			return
		}
	}
}

// findExtent returns the extent covering the logical page, charging one
// extent lookup. ok is false for holes.
func (ino *Inode) findExtent(page uint64) (ExtentRun, bool) {
	fs := ino.fs
	fs.clock.Advance(fs.params.ExtentOp)
	i := sort.Search(len(ino.extents), func(i int) bool {
		return ino.extents[i].Logical > page
	})
	if i == 0 {
		return ExtentRun{}, false
	}
	e := ino.extents[i-1]
	if page < e.End() {
		return e, true
	}
	return ExtentRun{}, false
}

// insertExtent adds a run, merging with neighbours when both the
// logical and physical ranges are contiguous.
func (ino *Inode) insertExtent(run ExtentRun) {
	fs := ino.fs
	fs.clock.Advance(fs.params.ExtentOp)
	fs.trackRun(ino, run.Start, run.Count)
	i := sort.Search(len(ino.extents), func(i int) bool {
		return ino.extents[i].Logical > run.Logical
	})
	// Merge left.
	if i > 0 {
		left := &ino.extents[i-1]
		if left.End() == run.Logical && left.Start+mem.Frame(left.Count) == run.Start {
			left.Count += run.Count
			// Try merging the (possibly now adjacent) right neighbour.
			if i < len(ino.extents) {
				right := ino.extents[i]
				if left.End() == right.Logical && left.Start+mem.Frame(left.Count) == right.Start {
					left.Count += right.Count
					ino.extents = append(ino.extents[:i], ino.extents[i+1:]...)
				}
			}
			return
		}
	}
	// Merge right.
	if i < len(ino.extents) {
		right := &ino.extents[i]
		if run.End() == right.Logical && run.Start+mem.Frame(run.Count) == right.Start {
			right.Logical = run.Logical
			right.Start = run.Start
			right.Count += run.Count
			return
		}
	}
	ino.extents = append(ino.extents, ExtentRun{})
	copy(ino.extents[i+1:], ino.extents[i:])
	ino.extents[i] = run
}

// File is an open handle. Handles are not safe for concurrent use.
// Every handle carries its own file position for the sequential
// Read/Write/Seek interface (file.go); the positional ReadAt/WriteAt
// ignore it, as in POSIX.
type File struct {
	inode  *Inode
	closed bool
	pos    uint64
	append bool // every Write lands at EOF (O_APPEND)
}

// Inode returns the file's inode.
func (f *File) Inode() *Inode { return f.inode }

// Close drops the handle's reference; the last reference of an
// unlinked (or temp) file frees its storage.
func (f *File) Close() error {
	if f.closed {
		return fmt.Errorf("memfs: double close of inode %d", f.inode.ino)
	}
	f.closed = true
	f.inode.refs--
	return f.inode.fs.maybeFree(f.inode)
}

// Ref takes an additional reference (a mapping pins the file).
func (f *File) Ref() { f.inode.refs++ }

// Unref drops a reference taken with Ref.
func (f *File) Unref() error {
	f.inode.refs--
	return f.inode.fs.maybeFree(f.inode)
}

// Truncate sets the file size. Growing an Extent-policy file allocates
// and zeroes backing extents immediately (PMFS-style preallocation);
// growing a PerPage file only updates the size (pages appear on first
// use). Shrinking frees extents beyond the new size under either
// policy.
func (f *File) Truncate(size uint64) error {
	ino := f.inode
	fs := ino.fs
	fs.clock.Advance(fs.params.InodeOp)
	newPages := (size + mem.FrameSize - 1) / mem.FrameSize
	if size < ino.size {
		if err := f.shrinkTo(newPages); err != nil {
			return err
		}
		ino.size = size
		return nil
	}
	if fs.policy == Extent {
		if err := f.allocateRange(ino.Pages(), newPages-ino.Pages()); err != nil {
			return err
		}
	}
	ino.size = size
	return nil
}

func (f *File) shrinkTo(pages uint64) error {
	ino := f.inode
	fs := ino.fs
	kept := ino.extents[:0]
	for _, e := range ino.extents {
		switch {
		case e.End() <= pages:
			kept = append(kept, e)
		case e.Logical >= pages:
			fs.memory.EraseRangeEpoch(e.Start, e.Count)
			fs.untrackRun(e.Start, e.Count)
			if err := fs.freeRun(buddy.Run{Start: e.Start, Count: e.Count}); err != nil {
				return err
			}
			fs.unchargeQuota(ino, e.Count)
			fs.clock.Advance(fs.params.ExtentOp)
		default: // split
			keep := pages - e.Logical
			kept = append(kept, ExtentRun{Logical: e.Logical, Start: e.Start, Count: keep})
			dropStart := e.Start + mem.Frame(keep)
			fs.memory.EraseRangeEpoch(dropStart, e.Count-keep)
			fs.untrackRun(dropStart, e.Count-keep)
			if err := fs.freeRun(buddy.Run{Start: dropStart, Count: e.Count - keep}); err != nil {
				return err
			}
			fs.unchargeQuota(ino, e.Count-keep)
			fs.clock.Advance(fs.params.ExtentOp)
		}
	}
	ino.extents = kept
	return nil
}

// allocateRange backs [page, page+count) with extents, using as few
// runs as the allocator can provide (halving on fragmentation). The
// operation is atomic: on failure every run already obtained is
// returned and the inode is unchanged, so callers can retry safely
// after relieving pressure.
func (f *File) allocateRange(page, count uint64) error {
	ino := f.inode
	fs := ino.fs
	var runs []buddy.Run
	rollback := func(cause error) error {
		for _, r := range runs {
			fs.unchargeQuota(ino, r.Count)
			if ferr := fs.freeRun(r); ferr != nil {
				return fmt.Errorf("memfs %s: rollback failed: %v (after %w)", fs.name, ferr, cause)
			}
		}
		return cause
	}
	remaining := count
	for remaining > 0 {
		want := remaining
		var run buddy.Run
		for {
			r, err := fs.allocRun(want)
			if err == nil {
				run = r
				break
			}
			if want == 1 {
				return rollback(fmt.Errorf("memfs %s: out of space for inode %d: %w", fs.name, ino.ino, err))
			}
			want /= 2
			fs.clock.Advance(fs.params.BitmapOp)
		}
		if err := fs.chargeQuota(ino, run.Count); err != nil {
			if ferr := fs.freeRun(run); ferr != nil {
				return ferr
			}
			return rollback(err)
		}
		runs = append(runs, run)
		remaining -= run.Count
	}
	// Commit: zero and insert every run.
	for _, run := range runs {
		// PMFS zeroes newly allocated blocks (data must not leak
		// between files). Charged eagerly, per page.
		fs.memory.ZeroFrames(run.Start, run.Count)
		ino.insertExtent(ExtentRun{Logical: page, Start: run.Start, Count: run.Count})
		fs.cExtentAllocs.Of(fs.stats, "extent_allocs").Inc()
		page += run.Count
	}
	return nil
}

// PageFrame resolves the frame backing a file page. With allocate set
// (write or fault path) a missing page is backed on demand: PerPage
// allocates exactly one zeroed frame; Extent fills the hole with an
// extent run. The boolean result reports whether a hole was filled.
func (f *File) PageFrame(page uint64, allocate bool) (mem.Frame, bool, error) {
	ino := f.inode
	fs := ino.fs
	if page >= ino.Pages() {
		return 0, false, fmt.Errorf("memfs %s: page %d beyond EOF (%d pages)", fs.name, page, ino.Pages())
	}
	fs.clock.Advance(fs.params.PageCacheLookup)
	if e, ok := ino.findExtent(page); ok {
		return e.Start + mem.Frame(page-e.Logical), false, nil
	}
	if !allocate {
		return 0, false, fmt.Errorf("memfs %s: hole at page %d of inode %d", fs.name, page, ino.ino)
	}
	switch fs.policy {
	case PerPage:
		if err := fs.chargeQuota(ino, 1); err != nil {
			return 0, false, err
		}
		fr, err := fs.allocFrame()
		if err != nil {
			fs.unchargeQuota(ino, 1)
			return 0, false, fmt.Errorf("memfs %s: %w", fs.name, err)
		}
		fs.memory.ZeroFrames(fr, 1)
		ino.insertExtent(ExtentRun{Logical: page, Start: fr, Count: 1})
		fs.cPageAllocs.Of(fs.stats, "page_allocs").Inc()
		return fr, true, nil
	default: // Extent: fill the hole containing page
		if err := f.allocateRange(page, 1); err != nil {
			return 0, false, err
		}
		e, ok := ino.findExtent(page)
		if !ok {
			return 0, false, fmt.Errorf("memfs %s: internal: page %d still a hole", fs.name, page)
		}
		return e.Start + mem.Frame(page-e.Logical), true, nil
	}
}

// EnsureContiguous (re)allocates the whole file as a single extent of
// the given page count, used by file-only memory to create mappable
// ranges. The file must be empty (freshly created); the cost is one
// extent allocation plus the O(1) epoch zero — *not* per page.
func (f *File) EnsureContiguous(pages uint64) error {
	ino := f.inode
	fs := ino.fs
	if len(ino.extents) != 0 {
		return fmt.Errorf("memfs %s: EnsureContiguous on non-empty inode %d", fs.name, ino.ino)
	}
	if pages == 0 {
		return fmt.Errorf("memfs %s: empty contiguous allocation", fs.name)
	}
	if err := fs.chargeQuota(ino, pages); err != nil {
		return err
	}
	run, err := fs.allocRun(pages)
	if err != nil {
		fs.unchargeQuota(ino, pages)
		return fmt.Errorf("memfs %s: contiguous allocation of %d pages: %w", fs.name, pages, err)
	}
	// O(1) erase instead of eager zeroing: this is what keeps the
	// allocation constant-time.
	fs.memory.EraseRangeEpoch(run.Start, run.Count)
	ino.insertExtent(ExtentRun{Logical: 0, Start: run.Start, Count: run.Count})
	ino.size = pages * mem.FrameSize
	fs.cExtentAllocs.Of(fs.stats, "extent_allocs").Inc()
	return nil
}

// EnsureExtents backs an empty file with the given page count using as
// few maximal extents as the allocator can provide — the terabyte-scale
// variant of EnsureContiguous. Each extent is epoch-erased (O(1) per
// extent), so total cost is O(extents), where extents is bounded by
// pages / max-buddy-block (1 GiB), never O(pages).
//
// alignPages constrains every extent's size (and therefore start) to a
// multiple of the given power-of-two page count (1 = unconstrained).
// File-only memory passes its subtree-link granularity here so the
// resulting extents stay linkable.
func (f *File) EnsureExtents(pages, alignPages uint64) error {
	ino := f.inode
	fs := ino.fs
	if len(ino.extents) != 0 {
		return fmt.Errorf("memfs %s: EnsureExtents on non-empty inode %d", fs.name, ino.ino)
	}
	if pages == 0 {
		return fmt.Errorf("memfs %s: empty allocation", fs.name)
	}
	if alignPages == 0 {
		alignPages = 1
	}
	if alignPages&(alignPages-1) != 0 {
		return fmt.Errorf("memfs %s: alignment %d not a power of two", fs.name, alignPages)
	}
	if pages%alignPages != 0 {
		return fmt.Errorf("memfs %s: %d pages not a multiple of alignment %d", fs.name, pages, alignPages)
	}
	maxRun := uint64(1) << buddy.MaxOrder
	var runs []buddy.Run
	rollback := func(cause error) error {
		for _, r := range runs {
			fs.unchargeQuota(ino, r.Count)
			if ferr := fs.freeRun(r); ferr != nil {
				return fmt.Errorf("memfs %s: rollback failed: %v (after %w)", fs.name, ferr, cause)
			}
		}
		return cause
	}
	remaining := pages
	for remaining > 0 {
		want := remaining
		if want > maxRun {
			want = maxRun
		}
		var run buddy.Run
		for {
			r, err := fs.allocRun(want)
			if err == nil {
				run = r
				break
			}
			if want <= alignPages {
				return rollback(fmt.Errorf("memfs %s: out of space for inode %d: %w", fs.name, ino.ino, err))
			}
			want = want / 2 / alignPages * alignPages
			if want < alignPages {
				want = alignPages
			}
			fs.clock.Advance(fs.params.BitmapOp)
		}
		if err := fs.chargeQuota(ino, run.Count); err != nil {
			if ferr := fs.freeRun(run); ferr != nil {
				return ferr
			}
			return rollback(err)
		}
		runs = append(runs, run)
		remaining -= run.Count
	}
	logical := uint64(0)
	for _, run := range runs {
		fs.memory.EraseRangeEpoch(run.Start, run.Count)
		ino.insertExtent(ExtentRun{Logical: logical, Start: run.Start, Count: run.Count})
		fs.cExtentAllocs.Of(fs.stats, "extent_allocs").Inc()
		logical += run.Count
	}
	ino.size = pages * mem.FrameSize
	return nil
}

// ReadAt implements read(2): kernel copy from file pages into buf.
// It charges the syscall overhead plus a per-page copy cost, and
// returns the number of bytes read (short at EOF).
func (f *File) ReadAt(buf []byte, off uint64) (int, error) {
	ino := f.inode
	fs := ino.fs
	fs.clock.Advance(fs.params.SyscallOverhead)
	if off >= ino.size {
		return 0, nil
	}
	n := uint64(len(buf))
	if off+n > ino.size {
		n = ino.size - off
	}
	read := uint64(0)
	for read < n {
		page := (off + read) / mem.FrameSize
		pgOff := (off + read) % mem.FrameSize
		chunk := mem.FrameSize - pgOff
		if chunk > n-read {
			chunk = n - read
		}
		fs.clock.Advance(fs.params.ReadPerPage())
		e, ok := ino.findExtent(page)
		if !ok {
			// Hole: reads as zeros.
			for i := uint64(0); i < chunk; i++ {
				buf[read+i] = 0
			}
		} else {
			fr := e.Start + mem.Frame(page-e.Logical)
			fs.record(fr, false)
			fs.memory.ReadAt(fr.Addr()+mem.PhysAddr(pgOff), buf[read:read+chunk])
		}
		read += chunk
	}
	return int(read), nil
}

// WriteAt implements write(2): kernel copy into file pages, allocating
// and extending as needed.
func (f *File) WriteAt(buf []byte, off uint64) (int, error) {
	ino := f.inode
	fs := ino.fs
	fs.clock.Advance(fs.params.SyscallOverhead)
	end := off + uint64(len(buf))
	if end > ino.size {
		if err := f.Truncate(end); err != nil {
			return 0, err
		}
	}
	written := uint64(0)
	for written < uint64(len(buf)) {
		page := (off + written) / mem.FrameSize
		pgOff := (off + written) % mem.FrameSize
		chunk := mem.FrameSize - pgOff
		if chunk > uint64(len(buf))-written {
			chunk = uint64(len(buf)) - written
		}
		fs.clock.Advance(fs.params.ReadPerPage())
		fr, _, err := f.PageFrame(page, true)
		if err != nil {
			return int(written), err
		}
		fs.record(fr, true)
		fs.memory.WriteAt(fr.Addr()+mem.PhysAddr(pgOff), buf[written:written+chunk])
		written += chunk
	}
	return int(written), nil
}

// SetDurability re-marks the file volatile or persistent — the paper's
// "marked at any time as volatile or persistent" operation. O(1).
func (f *File) SetDurability(d Durability) {
	f.inode.fs.clock.Advance(f.inode.fs.params.InodeOp)
	f.inode.dur = d
}

// DiscardForPressure deletes discardable files (oldest first) until at
// least want frames have been freed or no candidates remain. It
// returns the number of frames reclaimed. Per reclaimed *file* the
// work is O(extents) — never O(pages) — which is the paper's
// file-grain reclamation claim.
func (fs *FS) DiscardForPressure(want uint64) (uint64, error) {
	var freed uint64
	candidates := append([]*Inode(nil), fs.discardables...)
	for _, ino := range candidates {
		if freed >= want {
			break
		}
		if ino.refs > 0 {
			continue // open or mapped: not reclaimable right now
		}
		freed += ino.AllocatedPages()
		// Remove any directory entry pointing at it.
		fs.forgetInode(fs.root, ino)
		ino.nlink = 0
		if err := fs.maybeFree(ino); err != nil {
			return freed, err
		}
		fs.stats.Counter("discards").Inc()
	}
	return freed, nil
}

func (fs *FS) forgetInode(dir *Inode, target *Inode) {
	for name, child := range dir.children {
		if child == target {
			delete(dir.children, name)
			fs.clock.Advance(fs.params.DirOp)
			return
		}
		if child.dir {
			fs.forgetInode(child, target)
		}
	}
}

// Remount simulates recovery after a crash: volatile files disappear,
// persistent files (and directories) survive. Open handles are dead
// after a crash, so all refs reset. Returns the number of files
// dropped.
func (fs *FS) Remount() (int, error) {
	dropped := 0
	var scrub func(dir *Inode) error
	scrub = func(dir *Inode) error {
		for name, child := range dir.children {
			if child.dir {
				if err := scrub(child); err != nil {
					return err
				}
				continue
			}
			child.refs = 0
			if child.dur == Volatile {
				delete(dir.children, name)
				child.nlink = 0
				if err := fs.maybeFree(child); err != nil {
					return err
				}
				dropped++
			}
		}
		return nil
	}
	if err := scrub(fs.root); err != nil {
		return dropped, err
	}
	// Anonymous temp files never survive.
	for ino, i := range fs.inodes {
		if !i.dir && i.nlink == 0 {
			i.refs = 0
			if err := fs.maybeFree(i); err != nil {
				return dropped, err
			}
			delete(fs.inodes, ino)
			dropped++
		}
	}
	fs.stats.Counter("remounts").Inc()
	return dropped, nil
}

// RecoverMetadata models remount-time metadata replay: the file
// system re-reads every surviving inode and walks its extent list —
// one inode operation per file plus one extent operation per run. The
// cost is O(extents): with the Extent policy a multi-gigabyte file is
// typically a single run, so recovery does not grow with file size.
// Returns the inode and extent counts replayed.
func (fs *FS) RecoverMetadata() (inodes, extents uint64) {
	for _, ino := range fs.inodes {
		inodes++
		extents += uint64(len(ino.extents))
	}
	fs.clock.Advance(sim.Time(inodes)*fs.params.InodeOp + sim.Time(extents)*fs.params.ExtentOp)
	return inodes, extents
}

// CheckInvariants validates that each file's extents are logically
// disjoint, that every extent lies inside the block region (or the
// fast-tier region when tiering is attached), that no two extents share
// a frame, and that the block allocator is consistent. It costs
// O(E log E) in the number of extents E: the extents are sorted by
// first frame and each is compared with its predecessor.
func (fs *FS) CheckInvariants() error {
	type owned struct {
		run ExtentRun
		ino uint64
	}
	var runs []owned
	for _, ino := range fs.inodes {
		var prevEnd uint64
		for idx, e := range ino.extents {
			if idx > 0 && e.Logical < prevEnd {
				return fmt.Errorf("memfs %s: inode %d extents overlap logically", fs.name, ino.ino)
			}
			prevEnd = e.End()
			if !fs.bud.Contains(e.Start, e.Count) && (fs.fastBud == nil || !fs.fastBud.Contains(e.Start, e.Count)) {
				return fmt.Errorf("memfs %s: inode %d extent [%d,+%d) lies outside the block region", fs.name, ino.ino, e.Start, e.Count)
			}
			runs = append(runs, owned{e, ino.ino})
		}
	}
	slices.SortFunc(runs, func(x, y owned) int { return cmp.Compare(x.run.Start, y.run.Start) })
	for i := 1; i < len(runs); i++ {
		prev, cur := runs[i-1], runs[i]
		if cur.run.Start < prev.run.Start+mem.Frame(prev.run.Count) {
			return fmt.Errorf("memfs %s: frame %d owned by inodes %d and %d", fs.name, cur.run.Start, prev.ino, cur.ino)
		}
	}
	return fs.bud.CheckInvariants()
}
