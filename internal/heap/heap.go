// Package heap is a user-level memory allocator built on file-only
// memory — the paper's language-runtime layer ("most dynamic memory
// allocation is managed with file-system mechanisms rather than common
// virtual memory mechanisms").
//
// Small allocations are carved from size-class free lists inside arena
// regions; each arena is one contiguous region obtained from the
// backing Space in O(1) (a single-extent anonymous file under core, a
// granted physical extent under usermode). Large allocations get their
// own region directly. Every block carries an in-memory header
// (written through the simulated translation path), so alloc and free
// exercise real loads and stores, and corruption or double frees are
// detected from the header magic.
//
// The allocator never returns memory page-by-page (there is no
// madvise): arenas are released as whole regions when they empty,
// exactly the file-grain reclamation story of §3.1.
package heap

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/pagetable"
)

const (
	// headerSize is the per-block header: magic (4) | class (4).
	headerSize = 8

	magicAllocated = 0xA110C8ED
	magicFree      = 0xF4EEF4EE

	// minClass and maxClass bound the size classes (powers of two).
	minClassShift = 4  // 16 B
	maxClassShift = 15 // 32 KiB
	numClasses    = maxClassShift - minClassShift + 1

	// arenaPages is the size of one small-object arena (4 MiB).
	arenaPages = 1024
)

const rw = pagetable.FlagRead | pagetable.FlagWrite | pagetable.FlagUser

// zeroBlock is the all-zero source every heap re-zeroes recycled
// blocks from, so neither a new heap nor the steady-state alloc path
// allocates host memory for it. Nothing ever writes it.
var zeroBlock [1 << maxClassShift]byte

// Region is one contiguous chunk of address space the allocator carves
// blocks from. core.Mapping and usermode extents both satisfy it.
type Region interface {
	Base() mem.VirtAddr
	Pages() uint64
}

// Space is the address-space contract the allocator runs on: O(1)
// region allocation and release plus byte access through whatever
// translation (or bounds-check) path the space simulates. WriteBuf
// only reads its argument: the heap passes it the shared zeroBlock.
type Space interface {
	AllocPages(pages uint64) (Region, error)
	FreeRegion(Region) error
	WriteBuf(mem.VirtAddr, []byte) error
	ReadBuf(mem.VirtAddr, []byte) error
}

// coreSpace adapts a file-only-memory process to the Space interface.
type coreSpace struct{ p *core.Process }

func (s coreSpace) AllocPages(pages uint64) (Region, error) {
	m, err := s.p.AllocVolatile(pages, rw)
	if err != nil {
		return nil, err
	}
	return m, nil
}

func (s coreSpace) FreeRegion(r Region) error { return s.p.Unmap(r.(*core.Mapping)) }

func (s coreSpace) WriteBuf(a mem.VirtAddr, b []byte) error { return s.p.WriteBuf(a, b) }

func (s coreSpace) ReadBuf(a mem.VirtAddr, b []byte) error { return s.p.ReadBuf(a, b) }

// Heap allocates user objects from a Space.
type Heap struct {
	space Space

	// free[c] holds recycled blocks of class c (block addresses,
	// header included). Virgin blocks are handed out by bump pointer
	// and never appear here until their first Free.
	free [numClasses][]mem.VirtAddr

	// arenas tracks small-object arenas and their live-block counts.
	arenas map[Region]*arenaInfo
	// classArenas lists the arenas of each class (for bump allocation).
	classArenas [numClasses][]Region
	// arenaOf locates the arena of a block address.
	arenaOf map[mem.VirtAddr]Region

	// reserve caches one empty arena per class (hysteresis, like
	// malloc's trim threshold), so alloc/free ping-pong does not
	// release and re-create arenas.
	reserve [numClasses]Region

	// large maps the user address of a large allocation to its
	// dedicated region.
	large map[mem.VirtAddr]Region

	bytesInUse  uint64
	liveObjects int
}

type arenaInfo struct {
	live   int
	class  int
	blocks int // total blocks in the arena
	bump   int // blocks handed out at least once (virgin boundary)
}

// New creates a heap for the given file-only-memory process.
func New(p *core.Process) *Heap {
	return NewOn(coreSpace{p})
}

// NewOn creates a heap on an arbitrary Space (usermode processes run
// their allocator on granted physical extents through this).
func NewOn(s Space) *Heap {
	return &Heap{
		space:   s,
		arenas:  make(map[Region]*arenaInfo),
		arenaOf: make(map[mem.VirtAddr]Region),
		large:   make(map[mem.VirtAddr]Region),
	}
}

// classFor returns the size class index for a payload size, or -1 for
// large allocations.
func classFor(size uint64) int {
	if size == 0 {
		size = 1
	}
	need := size + headerSize
	for c := 0; c < numClasses; c++ {
		if uint64(1)<<(c+minClassShift) >= need {
			return c
		}
	}
	return -1
}

// blockSize returns the byte size of class-c blocks.
func blockSize(c int) uint64 { return uint64(1) << (c + minClassShift) }

// Alloc returns the address of a zero-initialized region of at least
// size bytes.
func (h *Heap) Alloc(size uint64) (mem.VirtAddr, error) {
	c := classFor(size)
	if c < 0 {
		return h.allocLarge(size)
	}
	block, recycled, err := h.takeBlock(c)
	if err != nil {
		return 0, err
	}
	if err := h.writeHeader(block, magicAllocated, uint32(c)); err != nil {
		return 0, err
	}
	// Recycled blocks must be re-zeroed by the allocator; virgin
	// blocks come from an epoch-erased extent and are already zero.
	if recycled {
		payload := block + headerSize
		zero := zeroBlock[:blockSize(c)-headerSize]
		if err := h.space.WriteBuf(payload, zero); err != nil {
			return 0, err
		}
	}
	arena := h.arenaOf[block]
	info := h.arenas[arena]
	info.live++
	if h.reserve[c] == arena {
		h.reserve[c] = nil
	}
	h.bytesInUse += blockSize(c)
	h.liveObjects++
	return block + headerSize, nil
}

// takeBlock returns a block of class c: a recycled one from the free
// list, a virgin one by bump pointer, or the first block of a freshly
// grown arena. recycled reports whether the block carries old data.
func (h *Heap) takeBlock(c int) (block mem.VirtAddr, recycled bool, err error) {
	if n := len(h.free[c]); n > 0 {
		block = h.free[c][n-1]
		h.free[c] = h.free[c][:n-1]
		return block, true, nil
	}
	for _, arena := range h.classArenas[c] {
		info := h.arenas[arena]
		if info.bump < info.blocks {
			block = arena.Base() + mem.VirtAddr(uint64(info.bump)*blockSize(c))
			info.bump++
			h.arenaOf[block] = arena
			return block, false, nil
		}
	}
	arena, err := h.grow(c)
	if err != nil {
		return 0, false, err
	}
	info := h.arenas[arena]
	block = arena.Base()
	info.bump = 1
	h.arenaOf[block] = arena
	return block, false, nil
}

func (h *Heap) allocLarge(size uint64) (mem.VirtAddr, error) {
	pages := (size + headerSize + mem.FrameSize - 1) / mem.FrameSize
	m, err := h.space.AllocPages(pages)
	if err != nil {
		return 0, err
	}
	if err := h.writeHeader(m.Base(), magicAllocated, uint32(numClasses)); err != nil {
		return 0, err
	}
	payload := m.Base() + headerSize
	h.large[payload] = m
	h.bytesInUse += pages * mem.FrameSize
	h.liveObjects++
	return payload, nil
}

// grow adds one arena for class c: a single O(1) region allocation,
// with no per-block work — blocks are issued lazily by bump pointer.
func (h *Heap) grow(c int) (Region, error) {
	m, err := h.space.AllocPages(arenaPages)
	if err != nil {
		return nil, err
	}
	info := &arenaInfo{
		class:  c,
		blocks: int(arenaPages * mem.FrameSize / blockSize(c)),
	}
	h.arenas[m] = info
	h.classArenas[c] = append(h.classArenas[c], m)
	return m, nil
}

// Free releases an allocation obtained from Alloc.
func (h *Heap) Free(payload mem.VirtAddr) error {
	if m, ok := h.large[payload]; ok {
		delete(h.large, payload)
		h.bytesInUse -= m.Pages() * mem.FrameSize
		h.liveObjects--
		return h.space.FreeRegion(m)
	}
	block := payload - headerSize
	magic, class, err := h.readHeader(block)
	if err != nil {
		return err
	}
	switch magic {
	case magicFree:
		return fmt.Errorf("heap: double free at %#x", uint64(payload))
	case magicAllocated:
	default:
		return fmt.Errorf("heap: free of invalid pointer %#x (header %#x)", uint64(payload), magic)
	}
	c := int(class)
	if c < 0 || c >= numClasses {
		return fmt.Errorf("heap: corrupt class %d at %#x", c, uint64(payload))
	}
	if err := h.writeHeader(block, magicFree, class); err != nil {
		return err
	}
	arena, ok := h.arenaOf[block]
	if !ok {
		return fmt.Errorf("heap: block %#x has no arena", uint64(block))
	}
	info := h.arenas[arena]
	info.live--
	h.bytesInUse -= blockSize(c)
	h.liveObjects--
	h.free[c] = append(h.free[c], block)

	// Whole-region reclamation with hysteresis: one empty arena per
	// class stays cached; further empties are released whole.
	if info.live == 0 {
		if h.reserve[c] == nil {
			h.reserve[c] = arena
			return nil
		}
		h.releaseArena(arena, info)
		return h.space.FreeRegion(arena)
	}
	return nil
}

// TrimReserves releases the cached empty arenas (malloc_trim).
func (h *Heap) TrimReserves() error {
	for c := 0; c < numClasses; c++ {
		arena := h.reserve[c]
		if arena == nil {
			continue
		}
		h.reserve[c] = nil
		h.releaseArena(arena, h.arenas[arena])
		if err := h.space.FreeRegion(arena); err != nil {
			return err
		}
	}
	return nil
}

func (h *Heap) releaseArena(arena Region, info *arenaInfo) {
	c := info.class
	kept := h.free[c][:0]
	for _, b := range h.free[c] {
		if h.arenaOf[b] != arena {
			kept = append(kept, b)
		}
	}
	h.free[c] = kept
	for i := 0; i < info.bump; i++ {
		delete(h.arenaOf, arena.Base()+mem.VirtAddr(uint64(i)*blockSize(c)))
	}
	for i, a := range h.classArenas[c] {
		if a == arena {
			h.classArenas[c] = append(h.classArenas[c][:i], h.classArenas[c][i+1:]...)
			break
		}
	}
	delete(h.arenas, arena)
}

func (h *Heap) writeHeader(block mem.VirtAddr, magic uint32, class uint32) error {
	var b [headerSize]byte
	binary.LittleEndian.PutUint32(b[0:4], magic)
	binary.LittleEndian.PutUint32(b[4:8], class)
	return h.space.WriteBuf(block, b[:])
}

func (h *Heap) readHeader(block mem.VirtAddr) (magic, class uint32, err error) {
	var b [headerSize]byte
	if err := h.space.ReadBuf(block, b[:]); err != nil {
		return 0, 0, err
	}
	return binary.LittleEndian.Uint32(b[0:4]), binary.LittleEndian.Uint32(b[4:8]), nil
}

// UsableSize returns the payload capacity of an allocation.
func (h *Heap) UsableSize(payload mem.VirtAddr) (uint64, error) {
	if m, ok := h.large[payload]; ok {
		return m.Pages()*mem.FrameSize - headerSize, nil
	}
	magic, class, err := h.readHeader(payload - headerSize)
	if err != nil {
		return 0, err
	}
	if magic != magicAllocated {
		return 0, fmt.Errorf("heap: %#x is not an allocated pointer", uint64(payload))
	}
	return blockSize(int(class)) - headerSize, nil
}

// Write stores data into an allocation (bounds-checked convenience).
func (h *Heap) Write(payload mem.VirtAddr, data []byte) error {
	n, err := h.UsableSize(payload)
	if err != nil {
		return err
	}
	if uint64(len(data)) > n {
		return fmt.Errorf("heap: write of %d bytes into %d-byte allocation", len(data), n)
	}
	return h.space.WriteBuf(payload, data)
}

// Read loads from an allocation.
func (h *Heap) Read(payload mem.VirtAddr, buf []byte) error {
	n, err := h.UsableSize(payload)
	if err != nil {
		return err
	}
	if uint64(len(buf)) > n {
		return fmt.Errorf("heap: read of %d bytes from %d-byte allocation", len(buf), n)
	}
	return h.space.ReadBuf(payload, buf)
}

// Stats describes the heap's occupancy.
type Stats struct {
	LiveObjects int
	BytesInUse  uint64
	Arenas      int
	LargeAllocs int
}

// Stats returns current occupancy.
func (h *Heap) Stats() Stats {
	return Stats{
		LiveObjects: h.liveObjects,
		BytesInUse:  h.bytesInUse,
		Arenas:      len(h.arenas),
		LargeAllocs: len(h.large),
	}
}

// Regions calls fn for every region the heap currently holds from its
// Space — arenas, the cached per-class reserves, and large
// allocations. usermode uses it to prove heap↔grant containment.
func (h *Heap) Regions(fn func(Region)) {
	for arena := range h.arenas {
		fn(arena)
	}
	for _, m := range h.large {
		fn(m)
	}
}

// CheckInvariants validates free-list/header agreement for every
// issued arena block (test support; walks simulated memory).
func (h *Heap) CheckInvariants() error {
	freeSet := make(map[mem.VirtAddr]bool)
	for c := range h.free {
		for _, b := range h.free[c] {
			if freeSet[b] {
				return fmt.Errorf("heap: block %#x on a free list twice", uint64(b))
			}
			freeSet[b] = true
		}
	}
	for arena, info := range h.arenas {
		live := 0
		for i := 0; i < info.bump; i++ {
			b := arena.Base() + mem.VirtAddr(uint64(i)*blockSize(info.class))
			magic, class, err := h.readHeader(b)
			if err != nil {
				return err
			}
			if int(class) != info.class {
				return fmt.Errorf("heap: block %#x class %d in class-%d arena", uint64(b), class, info.class)
			}
			switch magic {
			case magicAllocated:
				live++
				if freeSet[b] {
					return fmt.Errorf("heap: allocated block %#x on free list", uint64(b))
				}
			case magicFree:
				if !freeSet[b] {
					return fmt.Errorf("heap: free block %#x missing from free list", uint64(b))
				}
			default:
				return fmt.Errorf("heap: corrupt header %#x at %#x", magic, uint64(b))
			}
		}
		if live != info.live {
			return fmt.Errorf("heap: arena %#x live=%d but %d allocated headers", uint64(arena.Base()), info.live, live)
		}
	}
	return nil
}
