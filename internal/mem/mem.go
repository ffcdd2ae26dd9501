// Package mem models the physical address space of the simulated
// machine: a set of 4 KiB frames grouped into DRAM and NVM regions.
//
// Frames hold real byte contents (materialized lazily, so terabyte-scale
// address spaces are cheap to simulate as long as they are sparsely
// written). Absent contents read as zero, which also gives the
// simulator its constant-time bulk-erase primitive: dropping a frame's
// backing returns it to the all-zero state.
//
// The package charges virtual time only for explicitly priced
// operations (eager zeroing, epoch erases). Plain data reads and writes
// are free here; the translation layers (vm, core) charge access costs
// because they depend on TLB and page-table state.
package mem

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Frame geometry. The simulator uses the x86-64 base page size.
const (
	FrameShift = 12
	FrameSize  = 1 << FrameShift // 4096 bytes

	// HugeFrames2M and HugeFrames1G are the frame counts of the two
	// x86-64 huge page sizes.
	HugeFrames2M = 512
	HugeFrames1G = 512 * 512
)

// Frame is a physical frame number. Frame f covers physical addresses
// [f*FrameSize, (f+1)*FrameSize).
type Frame uint64

// Addr returns the first physical address of the frame.
func (f Frame) Addr() PhysAddr { return PhysAddr(f) << FrameShift }

// PhysAddr is a byte address in the physical address space.
type PhysAddr uint64

// VirtAddr is a byte address in a process's virtual address space. It
// lives here (rather than in the page-table package) because every
// translation structure — page tables, TLBs, range tables — shares it.
type VirtAddr uint64

// VPN returns the virtual page number of the address.
func (a VirtAddr) VPN() uint64 { return uint64(a) >> FrameShift }

// PageOffset returns the byte offset within the 4 KiB page.
func (a VirtAddr) PageOffset() uint64 { return uint64(a) & (FrameSize - 1) }

// PageBase returns the address rounded down to its page boundary.
func (a VirtAddr) PageBase() VirtAddr { return a &^ (FrameSize - 1) }

// Frame returns the frame containing the address.
func (a PhysAddr) Frame() Frame { return Frame(a >> FrameShift) }

// Offset returns the byte offset of the address within its frame.
func (a PhysAddr) Offset() uint64 { return uint64(a) & (FrameSize - 1) }

// RegionKind distinguishes memory technologies.
type RegionKind int

const (
	// DRAM is conventional volatile memory.
	DRAM RegionKind = iota
	// NVM is byte-addressable persistent memory (3D XPoint/PCM class):
	// contents survive Crash, and references pay the NVM penalties.
	NVM
)

// String returns the kind's name.
func (k RegionKind) String() string {
	switch k {
	case DRAM:
		return "DRAM"
	case NVM:
		return "NVM"
	default:
		return fmt.Sprintf("RegionKind(%d)", int(k))
	}
}

// Region is a contiguous run of frames of one kind.
type Region struct {
	Start Frame
	Count uint64
	Kind  RegionKind
}

// End returns the first frame past the region.
func (r Region) End() Frame { return r.Start + Frame(r.Count) }

// Config describes the simulated machine's memory.
type Config struct {
	// DRAMFrames and NVMFrames are the sizes of the two regions. The
	// DRAM region starts at frame 0; the NVM region follows it.
	DRAMFrames uint64
	NVMFrames  uint64
}

// DefaultConfig returns a machine with 512 MiB of DRAM and 4 GiB of
// NVM — small enough to simulate instantly, large enough for every
// experiment in the paper's sweeps.
func DefaultConfig() Config {
	return Config{
		DRAMFrames: 512 << 20 >> FrameShift,
		NVMFrames:  4 << 30 >> FrameShift,
	}
}

// Memory is the physical address space of one simulated machine.
type Memory struct {
	clock   *sim.Clock
	params  *sim.Params
	mach    *sim.Machine // the owner; unlinkLeaf asks it about phases
	regions []Region
	total   uint64

	// mu serializes changes to the frame store's structure —
	// materializations, drops, dirty resets — and the spare pool. Reads
	// and writes of materialized frames take no lock (store.go says
	// why that is sound). Frame *contents* are never locked: parallel
	// CPU contexts touch disjoint frame sets by construction (per-CPU
	// arenas), so the lock only protects host-side bookkeeping and
	// never orders simulated events.
	mu sync.Mutex

	// frameStore holds the materialized frame contents and the dirty
	// bits (store.go). Absent frames read as zero. The store is the
	// persistence boundary: Crash drops the frames in DRAM regions and
	// keeps those in NVM regions.
	frameStore

	// spare recycles backing arrays of erased frames so churn-heavy
	// workloads (alloc/erase loops) do not allocate a fresh 4 KiB array
	// per materialization. Bounded so the host footprint of a machine
	// that erased a huge range once does not stay at its peak.
	spare []*frameArray

	stats *metrics.Set
	// Cached counters for the hot paths (also pre-created so their
	// report order never depends on which CPU context records first).
	cMaterialized *metrics.Counter
	cZeroed       *metrics.Counter
	cEpochErases  *metrics.Counter
	cCopied       *metrics.Counter
}

// frameArray is the backing storage of one materialized frame. Frames
// on the recycled pool must be fully zeroed — absent frames read as
// zero, so a recycled array with residue would resurrect dead contents
// on the next materialization.
type frameArray [FrameSize]byte

// reset scrubs the array before it enters the recycled pool.
func (d *frameArray) reset() {
	*d = frameArray{}
}

// maxSpareFrames bounds the recycled-array pool (32 MiB of host memory).
const maxSpareFrames = 8192

// New creates the physical memory described by cfg. It returns an
// error for a machine with no memory or more than MaxFrames frames.
func New(clock *sim.Clock, params *sim.Params, cfg Config) (*Memory, error) {
	if cfg.DRAMFrames == 0 && cfg.NVMFrames == 0 {
		return nil, fmt.Errorf("mem: machine has no memory")
	}
	if cfg.DRAMFrames > MaxFrames || cfg.NVMFrames > MaxFrames-cfg.DRAMFrames {
		return nil, fmt.Errorf("mem: machine of %d+%d frames exceeds %d", cfg.DRAMFrames, cfg.NVMFrames, uint64(MaxFrames))
	}
	m := &Memory{
		clock:      clock,
		params:     params,
		frameStore: newFrameStore(cfg.DRAMFrames + cfg.NVMFrames),
		stats:      metrics.NewSet(),
	}
	m.cMaterialized = m.stats.Counter("materialized_frames")
	m.cZeroed = m.stats.Counter("zeroed_frames")
	m.cEpochErases = m.stats.Counter("epoch_erases")
	m.cCopied = m.stats.Counter("copied_frames")
	// Self-register the counter set so Machine.CaptureState includes
	// memory events in snapshot state comparisons.
	m.mach = sim.MachineOf(clock, params)
	m.mach.RegisterStats("mem", m.stats)
	next := Frame(0)
	if cfg.DRAMFrames > 0 {
		m.regions = append(m.regions, Region{Start: next, Count: cfg.DRAMFrames, Kind: DRAM})
		next += Frame(cfg.DRAMFrames)
	}
	if cfg.NVMFrames > 0 {
		m.regions = append(m.regions, Region{Start: next, Count: cfg.NVMFrames, Kind: NVM})
		next += Frame(cfg.NVMFrames)
	}
	m.total = uint64(next)
	return m, nil
}

// TotalFrames returns the number of frames in the address space.
func (m *Memory) TotalFrames() uint64 { return m.total }

// Regions returns the memory regions in address order.
func (m *Memory) Regions() []Region {
	out := make([]Region, len(m.regions))
	copy(out, m.regions)
	return out
}

// Region returns the region of the given kind, and whether one exists.
// If multiple regions share a kind, the first is returned.
func (m *Memory) Region(kind RegionKind) (Region, bool) {
	for _, r := range m.regions {
		if r.Kind == kind {
			return r, true
		}
	}
	return Region{}, false
}

// Kind returns the technology backing the frame.
func (m *Memory) Kind(f Frame) RegionKind {
	for _, r := range m.regions {
		if f >= r.Start && f < r.End() {
			return r.Kind
		}
	}
	return DRAM
}

// Valid reports whether every frame in [start, start+count) exists.
func (m *Memory) Valid(start Frame, count uint64) bool {
	return uint64(start) < m.total && uint64(start)+count <= m.total
}

// Stats exposes the memory's event counters: "zeroed_frames",
// "epoch_erases", "materialized_frames".
func (m *Memory) Stats() *metrics.Set { return m.stats }

// frame returns f's backing array for a write, materializing it when
// f has none, and marks f dirty when tracking is on. A frame that is
// already materialized costs no lock: its leaf and array are found
// with the atomic loads of lookup, and its dirty bit is set with a
// compare-and-swap. The returned array is accessed without the lock:
// callers on parallel CPU contexts touch disjoint frames by
// construction. Reads use lookup, which never materializes.
func (m *Memory) frame(f Frame) *frameArray {
	if l := m.leaf(f); l != nil {
		k := uint(f) & (stLeafSpan - 1)
		if d := l.frames[k].Load(); d != nil {
			if m.tracking.Load() {
				m.markDirty(l, k)
			}
			return d
		}
	}
	return m.materialize(f)
}

// materialize links a backing array for f, from the spare pool when it
// has one, and marks f dirty when tracking is on.
func (m *Memory) materialize(f Frame) *frameArray {
	m.mu.Lock()
	defer m.mu.Unlock()
	l := m.leafForWrite(f)
	k := uint(f) & (stLeafSpan - 1)
	d := l.frames[k].Load()
	if d == nil {
		if n := len(m.spare); n > 0 {
			d = m.spare[n-1]
			m.spare[n-1] = nil
			m.spare = m.spare[:n-1]
		} else {
			d = new(frameArray)
		}
		l.frames[k].Store(d)
		l.mat |= 1 << k
		m.nFrames++
		m.cMaterialized.Inc()
	}
	if m.tracking.Load() {
		m.markDirty(l, k)
	}
	return d
}

// dropSlot unlinks slot k of l and recycles its array. Dropping a
// materialized frame changes its observable contents to zero, so it
// dirties the frame; an absent frame stays zero and is not dirtied,
// which keeps sparse epoch erases O(materialized). Caller holds mu.
func (m *Memory) dropSlot(l *storeLeaf, k uint) {
	d := l.frames[k].Load()
	l.frames[k].Store(nil)
	l.mat &^= 1 << k
	m.nFrames--
	if m.tracking.Load() {
		m.markDirty(l, k)
	}
	if len(m.spare) < maxSpareFrames {
		d.reset()
		m.spare = append(m.spare, d)
	}
}

// unlinkLeaf unlinks r's leaf when it holds no frame and no dirty bit,
// recycling it into the spare-leaf pool. It does nothing while the
// machine's CPUs may run concurrently: a CPU reading a frame of its
// own without the lock may still hold the leaf, and a recycled leaf
// would show it another frame's slot. The leaf then stays linked
// until a later walk outside that window finds it empty. Caller
// holds mu.
func (m *Memory) unlinkLeaf(r leafRef) {
	if r.l.mat != 0 || r.l.dirty.Load() != 0 || m.mach.FreeRunning() {
		return
	}
	r.mid.leaves[r.j].Store(nil)
	r.mid.present[r.j>>6] &^= 1 << (r.j & 63)
	if len(m.spareLeaves) < maxSpareLeaves {
		m.spareLeaves = append(m.spareLeaves, r.l)
	}
}

// dropRange removes the backing arrays of [start, start+count). The
// host cost is proportional to the linked mid nodes and leaves in the
// range, never to the range: huge sparsely materialized ranges — the
// terabyte-scale sweeps — are erased by visiting what exists.
func (m *Memory) dropRange(start Frame, count uint64) {
	if count == 1 && m.lookup(start) == nil {
		// The common single-frame case — vm zeroes every page it
		// populates — takes no lock when the frame is absent: only
		// the frame's owner can materialize it (store.go).
		return
	}
	m.mu.Lock()
	m.dropRangeLocked(start, start+Frame(count))
	m.mu.Unlock()
}

// dropRangeLocked drops every materialized frame in [start, end) and
// unlinks the leaves that empties. Caller holds mu.
func (m *Memory) dropRangeLocked(start, end Frame) {
	m.eachLeaf(start, end, func(r leafRef) {
		for x := r.l.mat & r.mask; x != 0; x &= x - 1 {
			m.dropSlot(r.l, uint(bits.TrailingZeros64(x)))
		}
		m.unlinkLeaf(r)
	})
}

// ReadAt copies len(buf) bytes starting at pa into buf. It panics if
// the range leaves the address space; translation layers validate
// addresses before the data plane is reached.
func (m *Memory) ReadAt(pa PhysAddr, buf []byte) {
	m.checkRange(pa, len(buf))
	if len(buf) == 1 {
		// A one-byte read (the per-page probe of the sparse workloads)
		// loads the byte instead of calling memmove.
		buf[0] = 0
		if d := m.lookup(pa.Frame()); d != nil {
			buf[0] = d[pa.Offset()]
		}
		return
	}
	for len(buf) > 0 {
		f := pa.Frame()
		off := pa.Offset()
		n := FrameSize - off
		if n > uint64(len(buf)) {
			n = uint64(len(buf))
		}
		if d := m.lookup(f); d != nil {
			copy(buf[:n], d[off:off+n])
		} else {
			clear(buf[:n])
		}
		buf = buf[n:]
		pa += PhysAddr(n)
	}
}

// WriteAt copies buf into physical memory starting at pa.
func (m *Memory) WriteAt(pa PhysAddr, buf []byte) {
	m.checkRange(pa, len(buf))
	for len(buf) > 0 {
		f := pa.Frame()
		off := pa.Offset()
		n := FrameSize - off
		if n > uint64(len(buf)) {
			n = uint64(len(buf))
		}
		d := m.frame(f)
		copy(d[off:off+n], buf[:n])
		buf = buf[n:]
		pa += PhysAddr(n)
	}
}

// ReadByteAt returns the byte at pa.
func (m *Memory) ReadByteAt(pa PhysAddr) byte {
	var b [1]byte
	m.ReadAt(pa, b[:])
	return b[0]
}

// WriteByteAt stores v at pa.
func (m *Memory) WriteByteAt(pa PhysAddr, v byte) {
	m.WriteAt(pa, []byte{v})
}

func (m *Memory) checkRange(pa PhysAddr, n int) {
	if n < 0 || uint64(pa)+uint64(n) > m.total<<FrameShift {
		panic(fmt.Sprintf("mem: access [%#x,+%d) outside physical address space (%d frames)", uint64(pa), n, m.total))
	}
}

// ZeroFrames eagerly zeroes count frames starting at start, charging
// the linear per-page zeroing cost to the memory's construction clock.
// This is the conventional path the paper identifies as a linear-time
// obstacle.
func (m *Memory) ZeroFrames(start Frame, count uint64) {
	m.zeroFrames(m.clock, start, count)
}

// ZeroFramesOn is ZeroFrames with the cost charged to the given CPU's
// own clock — the form used inside host-parallel phases, where the
// construction clock (usually the machine's forwarding kernel clock)
// has no single CPU to forward to.
func (m *Memory) ZeroFramesOn(cpu *sim.CPU, start Frame, count uint64) {
	m.zeroFrames(cpu.Clock(), start, count)
}

func (m *Memory) zeroFrames(clock *sim.Clock, start Frame, count uint64) {
	if !m.Valid(start, count) {
		panic(fmt.Sprintf("mem: ZeroFrames [%d,+%d) out of range", start, count))
	}
	m.dropRange(start, count)
	clock.Advance(sim.Time(count) * m.params.ZeroPage)
	m.cZeroed.Add(count)
}

// EraseRangeEpoch performs the paper's proposed constant-time erase of
// a frame range: the charged cost is a single O(1) epoch operation
// regardless of the range size. Semantically the range reads as zero
// afterwards. (The host-side store cleanup is not simulated time.)
func (m *Memory) EraseRangeEpoch(start Frame, count uint64) {
	if !m.Valid(start, count) {
		panic(fmt.Sprintf("mem: EraseRangeEpoch [%d,+%d) out of range", start, count))
	}
	m.dropRange(start, count)
	m.clock.Advance(m.params.ZeroEpoch)
	m.cEpochErases.Inc()
}

// Crash simulates power loss: contents of volatile (DRAM) regions are
// discarded; NVM contents survive. The caller is responsible for
// re-creating software state (file systems re-mount, processes die).
func (m *Memory) Crash() {
	m.mu.Lock()
	for _, r := range m.regions {
		if r.Kind == DRAM {
			m.dropRangeLocked(r.Start, r.End())
		}
	}
	m.mu.Unlock()
	m.stats.Counter("crashes").Inc()
}

// CopyFrames copies count frames from src to dst (used by COW breaks
// and page migration). Charges one eager-zero-equivalent copy cost per
// frame, the same order as a 4 KiB memcpy.
func (m *Memory) CopyFrames(dst, src Frame, count uint64) {
	m.copyFrames(m.clock, dst, src, count)
}

// CopyFramesOn is CopyFrames with the cost charged to the given CPU's
// own clock — the form used inside host-parallel phases, where the
// construction clock (usually the machine's forwarding kernel clock)
// has no single CPU to forward to.
func (m *Memory) CopyFramesOn(cpu *sim.CPU, dst, src Frame, count uint64) {
	m.copyFrames(cpu.Clock(), dst, src, count)
}

func (m *Memory) copyFrames(clock *sim.Clock, dst, src Frame, count uint64) {
	if !m.Valid(dst, count) || !m.Valid(src, count) {
		panic("mem: CopyFrames out of range")
	}
	for i := uint64(0); i < count; i++ {
		s := m.lookup(src + Frame(i))
		if s == nil {
			m.dropRange(dst+Frame(i), 1)
			continue
		}
		d := m.frame(dst + Frame(i))
		*d = *s
	}
	clock.Advance(sim.Time(count) * m.params.ZeroPage)
	m.cCopied.Add(count)
}

// MaterializedFrames returns how many frames currently have backing
// arrays (a host-memory footprint diagnostic).
func (m *Memory) MaterializedFrames() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nFrames
}

// ContentChecksum returns a deterministic 64-bit FNV-1a digest of the
// observable contents of physical memory: every non-zero materialized
// frame, visited in ascending frame order, hashed as its frame number
// followed by its 4096 bytes. All-zero frames are skipped because an
// absent frame also reads as zero — the digest is a function of what a
// reader could observe, not of host-side materialization accidents.
// Checksumming is tooling and advances no simulated clock.
//
// Zero bytes are not hashed one by one: FNV-1a maps a zero byte to
// h·p, so a run of k zero words is one multiply by p^(8k) (see
// zeroRunMul). The digest is the byte-at-a-time one, bit for bit.
func (m *Memory) ContentChecksum() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := uint64(fnvOffset64)
	m.eachLeaf(0, Frame(m.total), func(r leafRef) {
		for x := r.l.mat; x != 0; x &= x - 1 {
			k := bits.TrailingZeros64(x)
			h = hashFrame(h, r.base+Frame(k), r.l.frames[k].Load())
		}
	})
	return h
}

// FNV-1a 64-bit parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// frameWords is the number of 8-byte words in a frame.
const frameWords = FrameSize / 8

// zeroRunMul[k] is fnvPrime64^(8k) mod 2^64: the effect on an FNV-1a
// state of hashing k zero words, (h^0)·p applied 8k times.
var zeroRunMul = func() (t [frameWords + 1]uint64) {
	t[0] = 1
	p8 := uint64(1)
	for i := 0; i < 8; i++ {
		p8 *= fnvPrime64
	}
	for k := 1; k <= frameWords; k++ {
		t[k] = t[k-1] * p8
	}
	return t
}()

// hashFrame folds frame f and its contents into the FNV-1a state h, or
// returns h unchanged when d is all zero. One pass over d's words both
// decides that and hashes it: zero words only count a run, which is
// applied as one multiply before the next non-zero word (and after the
// frame number for the leading run), and only non-zero words are
// hashed byte by byte, in address order. Each 64-byte block is tested
// with one OR of its eight words first, so a zero block costs no
// per-word branch. The OR is written out: the compiler does not unroll
// loops, and an eight-step loop there measured no faster than the
// per-word scan.
func hashFrame(h uint64, f Frame, d *frameArray) uint64 {
	g := h
	for s := 0; s < 64; s += 8 {
		g = (g ^ uint64(f>>s)&0xff) * fnvPrime64
	}
	run, nonZero := 0, false
	for i := 0; i < FrameSize; i += 64 {
		b := d[i : i+64 : i+64]
		if binary.LittleEndian.Uint64(b[0:])|binary.LittleEndian.Uint64(b[8:])|
			binary.LittleEndian.Uint64(b[16:])|binary.LittleEndian.Uint64(b[24:])|
			binary.LittleEndian.Uint64(b[32:])|binary.LittleEndian.Uint64(b[40:])|
			binary.LittleEndian.Uint64(b[48:])|binary.LittleEndian.Uint64(b[56:]) == 0 {
			run += 8 // a zero block is a run of eight zero words
			continue
		}
		for j := 0; j < 64; j += 8 {
			w := binary.LittleEndian.Uint64(b[j:])
			if w == 0 {
				run++
				continue
			}
			if run > 0 { // skip a multiply by 1 in the serial chain
				g *= zeroRunMul[run]
				run = 0
			}
			nonZero = true
			for s := 0; s < 64; s += 8 {
				g = (g ^ (w>>s)&0xff) * fnvPrime64
			}
		}
	}
	if !nonZero {
		return h
	}
	return g * zeroRunMul[run]
}

// isZero reports whether the array reads as all zero (a memequal, not
// a byte loop).
func (d *frameArray) isZero() bool { return *d == frameArray{} }

// NonZeroCount returns how many of the given frames read as non-zero.
// Each backing array is tested in place; nothing is copied.
func (m *Memory) NonZeroCount(frames []Frame) int {
	n := 0
	for _, f := range frames {
		if d := m.lookup(f); d != nil && !d.isZero() {
			n++
		}
	}
	return n
}

// ReadNonZeroFrame copies frame f's contents into dst and reports true
// when f reads as non-zero; for a zero frame it copies nothing and
// reports false. dst must hold at least FrameSize bytes. Like ReadAt,
// it panics for a frame outside the address space.
func (m *Memory) ReadNonZeroFrame(f Frame, dst []byte) bool {
	m.checkRange(f.Addr(), FrameSize)
	d := m.lookup(f)
	if d == nil || d.isZero() {
		return false
	}
	copy(dst[:FrameSize], d[:])
	return true
}

// SpareScrubbed verifies that every backing array on the recycled pool
// is fully zeroed. A non-zero spare array would leak dead frame
// contents into the next materialization.
func (m *Memory) SpareScrubbed() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, d := range m.spare {
		if !d.isZero() {
			return fmt.Errorf("mem: spare frame array %d not scrubbed", i)
		}
	}
	return nil
}
