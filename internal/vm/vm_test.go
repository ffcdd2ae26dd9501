package vm

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/pagetable"
	"repro/internal/sim"
)

// machine bundles a small simulated machine for VM tests.
type machine struct {
	clock  *sim.Clock
	params sim.Params
	memory *mem.Memory
	kernel *Kernel
	fs     *memfs.FS // tmpfs over part of DRAM-adjacent NVM space
}

func newMachine(t *testing.T, poolFrames uint64) *machine {
	t.Helper()
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	memory, err := mem.New(clock, &params, mem.Config{DRAMFrames: poolFrames, NVMFrames: 16384})
	if err != nil {
		t.Fatal(err)
	}
	kernel, err := NewKernel(clock, &params, memory, Config{PoolBase: 0, PoolFrames: poolFrames, LowWater: poolFrames / 8})
	if err != nil {
		t.Fatal(err)
	}
	nvm, _ := memory.Region(mem.NVM)
	fs, err := memfs.New("tmpfs", memfs.PerPage, clock, &params, memory, nvm.Start, nvm.Count)
	if err != nil {
		t.Fatal(err)
	}
	return &machine{clock: clock, params: params, memory: memory, kernel: kernel, fs: fs}
}

const rw = pagetable.FlagRead | pagetable.FlagWrite | pagetable.FlagUser

func TestAnonMmapDemandFaulting(t *testing.T) {
	m := newMachine(t, 4096)
	as, err := m.kernel.NewAddressSpace()
	if err != nil {
		t.Fatal(err)
	}
	va, err := as.Mmap(MmapRequest{Pages: 16, Prot: rw, Anon: true, Private: true})
	if err != nil {
		t.Fatal(err)
	}
	if as.pt.MappedPages() != 0 {
		t.Fatalf("demand mapping pre-populated %d pages", as.pt.MappedPages())
	}
	for i := uint64(0); i < 16; i++ {
		if err := as.Touch(va+mem.VirtAddr(i*mem.FrameSize), true); err != nil {
			t.Fatalf("touch page %d: %v", i, err)
		}
	}
	if got := m.kernel.Stats().Value("minor_faults"); got != 16 {
		t.Fatalf("minor faults = %d, want 16", got)
	}
	if as.pt.MappedPages() != 16 {
		t.Fatalf("mapped pages = %d", as.pt.MappedPages())
	}
	// Second touches hit the TLB: no more faults.
	for i := uint64(0); i < 16; i++ {
		if err := as.Touch(va+mem.VirtAddr(i*mem.FrameSize), false); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.kernel.Stats().Value("minor_faults"); got != 16 {
		t.Fatalf("refault: minor faults = %d", got)
	}
}

func TestPopulateAvoidsFaults(t *testing.T) {
	m := newMachine(t, 4096)
	as, _ := m.kernel.NewAddressSpace()
	va, err := as.Mmap(MmapRequest{Pages: 32, Prot: rw, Anon: true, Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	if as.pt.MappedPages() != 32 {
		t.Fatalf("populate mapped %d pages, want 32", as.pt.MappedPages())
	}
	for i := uint64(0); i < 32; i++ {
		if err := as.Touch(va+mem.VirtAddr(i*mem.FrameSize), true); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.kernel.Stats().Value("minor_faults"); got != 0 {
		t.Fatalf("faults after populate = %d, want 0", got)
	}
}

func TestDemandTouchCostlierThanPopulatedTouch(t *testing.T) {
	// The Figure 6b comparison in miniature: per-page access cost with
	// demand faulting must far exceed pre-populated access.
	m := newMachine(t, 8192)
	as, _ := m.kernel.NewAddressSpace()

	pop, err := as.Mmap(MmapRequest{Pages: 64, Prot: rw, Anon: true, Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	t0 := m.clock.Now()
	for i := uint64(0); i < 64; i++ {
		if err := as.Touch(pop+mem.VirtAddr(i*mem.FrameSize), false); err != nil {
			t.Fatal(err)
		}
	}
	popCost := m.clock.Since(t0)

	dem, err := as.Mmap(MmapRequest{Pages: 64, Prot: rw, Anon: true})
	if err != nil {
		t.Fatal(err)
	}
	t1 := m.clock.Now()
	for i := uint64(0); i < 64; i++ {
		if err := as.Touch(dem+mem.VirtAddr(i*mem.FrameSize), true); err != nil {
			t.Fatal(err)
		}
	}
	demCost := m.clock.Since(t1)

	if demCost < 20*popCost {
		t.Fatalf("demand/populated touch ratio = %.1f, want > 20 (demand %v, populated %v)",
			float64(demCost)/float64(popCost), demCost, popCost)
	}
}

func TestFileMappingReadsFileData(t *testing.T) {
	m := newMachine(t, 4096)
	as, _ := m.kernel.NewAddressSpace()
	f, err := m.fs.Create("/data", memfs.CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte{0xA5}, 3*mem.FrameSize)
	if _, err := f.WriteAt(content, 0); err != nil {
		t.Fatal(err)
	}
	va, err := as.Mmap(MmapRequest{Pages: 3, Prot: pagetable.FlagRead | pagetable.FlagUser, File: f})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(content))
	if err := as.ReadBuf(va, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("mapped file data mismatch")
	}
}

func TestSharedFileMappingWritesThrough(t *testing.T) {
	m := newMachine(t, 4096)
	as, _ := m.kernel.NewAddressSpace()
	f, _ := m.fs.Create("/shared", memfs.CreateOptions{})
	f.Truncate(mem.FrameSize)
	va, err := as.Mmap(MmapRequest{Pages: 1, Prot: rw, File: f})
	if err != nil {
		t.Fatal(err)
	}
	if err := as.WriteBuf(va, []byte("through")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 7)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "through" {
		t.Fatalf("file saw %q", buf)
	}
}

func TestPrivateFileMappingCOW(t *testing.T) {
	m := newMachine(t, 4096)
	as, _ := m.kernel.NewAddressSpace()
	f, _ := m.fs.Create("/cow", memfs.CreateOptions{})
	if _, err := f.WriteAt([]byte("original"), 0); err != nil {
		t.Fatal(err)
	}
	va, err := as.Mmap(MmapRequest{Pages: 1, Prot: rw, File: f, Private: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := as.WriteBuf(va, []byte("modified")); err != nil {
		t.Fatal(err)
	}
	// Mapping sees the modification...
	got := make([]byte, 8)
	if err := as.ReadBuf(va, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "modified" {
		t.Fatalf("mapping reads %q", got)
	}
	// ...but the file does not.
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "original" {
		t.Fatalf("private write leaked to file: %q", got)
	}
	if m.kernel.Stats().Value("cow_breaks") == 0 {
		t.Fatal("no COW break recorded")
	}
}

func TestProtectionViolations(t *testing.T) {
	m := newMachine(t, 4096)
	as, _ := m.kernel.NewAddressSpace()
	ro, err := as.Mmap(MmapRequest{Pages: 1, Prot: pagetable.FlagRead | pagetable.FlagUser, Anon: true})
	if err != nil {
		t.Fatal(err)
	}
	var ae *AccessError
	if err := as.Touch(ro, true); !errors.As(err, &ae) {
		t.Fatalf("write to RO mapping: err = %v, want AccessError", err)
	}
	if err := as.Touch(0xDEAD000, false); !errors.As(err, &ae) {
		t.Fatalf("unmapped touch: err = %v", err)
	}
	// Write fault on a populated read-only PTE (not just VMA check).
	if err := as.Touch(ro, false); err != nil {
		t.Fatal(err)
	}
	if err := as.Touch(ro, true); !errors.As(err, &ae) {
		t.Fatalf("write to present RO page: err = %v", err)
	}
}

func TestMunmapFreesMemory(t *testing.T) {
	m := newMachine(t, 4096)
	as, _ := m.kernel.NewAddressSpace()
	free0 := m.kernel.pool.FreeFrames()
	va, _ := as.Mmap(MmapRequest{Pages: 64, Prot: rw, Anon: true, Populate: true})
	if err := as.Munmap(va, 64); err != nil {
		t.Fatal(err)
	}
	if len(as.vmas) != 0 || as.pt.MappedPages() != 0 {
		t.Fatalf("VMAs=%d mapped=%d after munmap", len(as.vmas), as.pt.MappedPages())
	}
	// Page-table nodes may persist; frames for data must be back.
	if got := m.kernel.pool.FreeFrames(); got < free0-8 {
		t.Fatalf("frames not freed: %d -> %d", free0, got)
	}
	if m.kernel.TrackedPages() != 0 {
		t.Fatalf("%d pages still tracked", m.kernel.TrackedPages())
	}
}

func TestMunmapPartialSplitsVMA(t *testing.T) {
	m := newMachine(t, 4096)
	as, _ := m.kernel.NewAddressSpace()
	va, _ := as.Mmap(MmapRequest{Pages: 10, Prot: rw, Anon: true, Populate: true})
	// Unmap the middle 4 pages.
	if err := as.Munmap(va+3*mem.FrameSize, 4); err != nil {
		t.Fatal(err)
	}
	if len(as.vmas) != 2 {
		t.Fatalf("VMAs = %d after split, want 2", len(as.vmas))
	}
	// Outer pages still accessible; middle faults SEGV-free as anon
	// VMAs are gone.
	if err := as.Touch(va, false); err != nil {
		t.Fatal(err)
	}
	if err := as.Touch(va+9*mem.FrameSize, false); err != nil {
		t.Fatal(err)
	}
	var ae *AccessError
	if err := as.Touch(va+4*mem.FrameSize, false); !errors.As(err, &ae) {
		t.Fatalf("middle still mapped: %v", err)
	}
}

func TestMunmapUnmappedFails(t *testing.T) {
	m := newMachine(t, 1024)
	as, _ := m.kernel.NewAddressSpace()
	if err := as.Munmap(0x5000, 1); err == nil {
		t.Fatal("munmap of nothing succeeded")
	}
}

func TestVMAMerging(t *testing.T) {
	m := newMachine(t, 4096)
	as, _ := m.kernel.NewAddressSpace()
	va1, _ := as.Mmap(MmapRequest{Pages: 4, Prot: rw, Anon: true})
	va2, _ := as.Mmap(MmapRequest{Pages: 4, Prot: rw, Anon: true})
	if va2 != va1+4*mem.FrameSize {
		t.Fatalf("allocations not adjacent: %#x then %#x", uint64(va1), uint64(va2))
	}
	if len(as.vmas) != 1 {
		t.Fatalf("adjacent identical anon VMAs not merged: %d", len(as.vmas))
	}
	// Different protection must not merge.
	if _, err := as.Mmap(MmapRequest{Pages: 4, Prot: pagetable.FlagRead | pagetable.FlagUser, Anon: true}); err != nil {
		t.Fatal(err)
	}
	if len(as.vmas) != 2 {
		t.Fatalf("VMAs = %d, want 2", len(as.vmas))
	}
}

func TestMprotect(t *testing.T) {
	m := newMachine(t, 4096)
	as, _ := m.kernel.NewAddressSpace()
	va, _ := as.Mmap(MmapRequest{Pages: 4, Prot: rw, Anon: true, Populate: true})
	if err := as.WriteBuf(va, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := as.Mprotect(va, 4, pagetable.FlagRead|pagetable.FlagUser); err != nil {
		t.Fatal(err)
	}
	var ae *AccessError
	if err := as.Touch(va, true); !errors.As(err, &ae) {
		t.Fatalf("write after mprotect(RO): %v", err)
	}
	if err := as.Touch(va, false); err != nil {
		t.Fatalf("read after mprotect: %v", err)
	}
}

func TestMadviseDontneed(t *testing.T) {
	m := newMachine(t, 4096)
	as, _ := m.kernel.NewAddressSpace()
	va, _ := as.Mmap(MmapRequest{Pages: 8, Prot: rw, Anon: true, Populate: true})
	if err := as.WriteBuf(va, []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := as.MadviseDontneed(va, 8); err != nil {
		t.Fatal(err)
	}
	if as.pt.MappedPages() != 0 {
		t.Fatalf("pages mapped after DONTNEED: %d", as.pt.MappedPages())
	}
	// Region still valid; refault reads zeros.
	b, err := as.ReadByteAt(va)
	if err != nil {
		t.Fatal(err)
	}
	if b != 0 {
		t.Fatalf("refault read %#x, want 0", b)
	}
}

func TestForkCOWSemantics(t *testing.T) {
	m := newMachine(t, 4096)
	parent, _ := m.kernel.NewAddressSpace()
	va, _ := parent.Mmap(MmapRequest{Pages: 2, Prot: rw, Anon: true, Private: true})
	if err := parent.WriteBuf(va, []byte("parent data")); err != nil {
		t.Fatal(err)
	}
	child, err := parent.Fork()
	if err != nil {
		t.Fatal(err)
	}
	// Child sees parent's data.
	got := make([]byte, 11)
	if err := child.ReadBuf(va, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "parent data" {
		t.Fatalf("child reads %q", got)
	}
	// Child writes don't affect the parent.
	if err := child.WriteBuf(va, []byte("child! data")); err != nil {
		t.Fatal(err)
	}
	if err := parent.ReadBuf(va, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "parent data" {
		t.Fatalf("parent sees child write: %q", got)
	}
	// Parent writes after fork don't affect child.
	if err := parent.WriteBuf(va+mem.FrameSize, []byte("p2")); err != nil {
		t.Fatal(err)
	}
	if err := child.ReadBuf(va+mem.FrameSize, got[:2]); err != nil {
		t.Fatal(err)
	}
	if string(got[:2]) == "p2" {
		t.Fatal("child sees parent's post-fork write")
	}
	if m.kernel.Stats().Value("cow_breaks") == 0 {
		t.Fatal("fork writes caused no COW breaks")
	}
	if err := child.Destroy(); err != nil {
		t.Fatal(err)
	}
	if err := parent.Destroy(); err != nil {
		t.Fatal(err)
	}
	if m.kernel.TrackedPages() != 0 {
		t.Fatalf("%d pages tracked after both exits", m.kernel.TrackedPages())
	}
}

func TestReclaimSwapsOutAndBack(t *testing.T) {
	// Pool sized so the second mapping forces reclaim of the first.
	m := newMachine(t, 160)
	as, _ := m.kernel.NewAddressSpace()
	va1, err := as.Mmap(MmapRequest{Pages: 64, Prot: rw, Anon: true})
	if err != nil {
		t.Fatal(err)
	}
	pattern := bytes.Repeat([]byte{0x5A}, 64*mem.FrameSize)
	if err := as.WriteBuf(va1, pattern); err != nil {
		t.Fatal(err)
	}
	// Pressure: allocate more than remains.
	va2, err := as.Mmap(MmapRequest{Pages: 96, Prot: rw, Anon: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := as.WriteBuf(va2, bytes.Repeat([]byte{0x11}, 96*mem.FrameSize)); err != nil {
		t.Fatalf("allocation under pressure failed: %v", err)
	}
	if m.kernel.Stats().Value("swapouts") == 0 {
		t.Fatal("no pages swapped out under pressure")
	}
	// First region must read back intact (major faults).
	got := make([]byte, len(pattern))
	if err := as.ReadBuf(va1, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern) {
		t.Fatal("data corrupted across swap")
	}
	if m.kernel.Stats().Value("major_faults") == 0 {
		t.Fatal("no major faults recorded on swap-in")
	}
}

func TestMlockPreventsReclaim(t *testing.T) {
	m := newMachine(t, 160)
	as, _ := m.kernel.NewAddressSpace()
	locked, err := as.Mmap(MmapRequest{Pages: 48, Prot: rw, Anon: true, Locked: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := as.WriteBuf(locked, bytes.Repeat([]byte{0xEE}, 48*mem.FrameSize)); err != nil {
		t.Fatal(err)
	}
	// Apply heavy pressure.
	va2, err := as.Mmap(MmapRequest{Pages: 100, Prot: rw, Anon: true})
	if err != nil {
		t.Fatal(err)
	}
	_ = as.WriteBuf(va2, bytes.Repeat([]byte{0x22}, 100*mem.FrameSize))
	// Locked pages must still be resident: touching them causes no
	// major faults.
	m.kernel.Stats().Reset()
	for i := uint64(0); i < 48; i++ {
		if err := as.Touch(locked+mem.VirtAddr(i*mem.FrameSize), false); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.kernel.Stats().Value("major_faults"); got != 0 {
		t.Fatalf("locked pages swapped: %d major faults", got)
	}
}

func TestFixedAddressMapping(t *testing.T) {
	m := newMachine(t, 1024)
	as, _ := m.kernel.NewAddressSpace()
	want := mem.VirtAddr(0x40000000)
	va, err := as.Mmap(MmapRequest{Addr: want, Pages: 2, Prot: rw, Anon: true})
	if err != nil || va != want {
		t.Fatalf("fixed mmap: va=%#x err=%v", uint64(va), err)
	}
	if _, err := as.Mmap(MmapRequest{Addr: want + mem.FrameSize, Pages: 2, Prot: rw, Anon: true}); err == nil {
		t.Fatal("overlapping fixed mapping accepted")
	}
	if _, err := as.Mmap(MmapRequest{Addr: 0x123, Pages: 1, Prot: rw, Anon: true}); err == nil {
		t.Fatal("unaligned fixed mapping accepted")
	}
}

func TestMmapValidation(t *testing.T) {
	m := newMachine(t, 1024)
	as, _ := m.kernel.NewAddressSpace()
	if _, err := as.Mmap(MmapRequest{Pages: 0, Prot: rw, Anon: true}); err == nil {
		t.Fatal("empty mapping accepted")
	}
	if _, err := as.Mmap(MmapRequest{Pages: 1, Prot: rw}); err == nil {
		t.Fatal("file mapping without file accepted")
	}
	if _, err := as.Mmap(MmapRequest{Pages: 1, Anon: true}); err == nil {
		t.Fatal("PROT_NONE accepted")
	}
	f, _ := m.fs.Create("/small", memfs.CreateOptions{})
	f.Truncate(mem.FrameSize)
	if _, err := as.Mmap(MmapRequest{Pages: 5, Prot: rw, File: f}); err == nil {
		t.Fatal("mapping beyond EOF accepted")
	}
}

// TestPageCountOverflowRejected: a page count whose byte length wraps
// 64 bits (2^62 pages is 2^74 bytes, which wraps to 0) must be an
// error from every call that takes one, not a VMA whose end wrapped
// onto its start.
func TestPageCountOverflowRejected(t *testing.T) {
	m := newMachine(t, 1024)
	as, _ := m.kernel.NewAddressSpace()
	va, err := as.Mmap(MmapRequest{Pages: 4, Prot: rw, Anon: true})
	if err != nil {
		t.Fatal(err)
	}
	const huge = uint64(1) << 62
	if _, err := as.Mmap(MmapRequest{Pages: huge, Prot: rw, Anon: true}); err == nil {
		t.Error("Mmap of 2^62 pages accepted")
	}
	if err := as.Munmap(va, huge); err == nil {
		t.Error("Munmap of 2^62 pages accepted")
	}
	if err := as.Mprotect(va, huge, rw); err == nil {
		t.Error("Mprotect of 2^62 pages accepted")
	}
	if err := as.MadviseDontneed(va, huge); err == nil {
		t.Error("MadviseDontneed of 2^62 pages accepted")
	}
	// The first count that reaches the top of the address space is
	// rejected; the mapping made above is untouched.
	top := uint64(as.pt.MaxVirt()) / mem.FrameSize
	if _, err := as.Mmap(MmapRequest{Pages: top, Prot: rw, Anon: true}); err == nil {
		t.Error("Mmap of the whole address space accepted")
	}
	if err := as.Touch(va+3*mem.FrameSize, true); err != nil {
		t.Fatalf("original mapping damaged: %v", err)
	}
	if err := as.Munmap(va, 4); err != nil {
		t.Fatal(err)
	}
}

func TestMappingPinsFile(t *testing.T) {
	m := newMachine(t, 1024)
	as, _ := m.kernel.NewAddressSpace()
	f, _ := m.fs.Create("/pinned", memfs.CreateOptions{})
	if _, err := f.WriteAt([]byte("keep"), 0); err != nil {
		t.Fatal(err)
	}
	va, err := as.Mmap(MmapRequest{Pages: 1, Prot: rw, File: f})
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := m.fs.Unlink("/pinned"); err != nil {
		t.Fatal(err)
	}
	// Data must still be accessible through the mapping.
	got := make([]byte, 4)
	if err := as.ReadBuf(va, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "keep" {
		t.Fatalf("mapped data after unlink: %q", got)
	}
	// Unmapping drops the last reference and frees the file.
	free0 := m.fs.FreeFrames()
	if err := as.Munmap(va, 1); err != nil {
		t.Fatal(err)
	}
	if m.fs.FreeFrames() != free0+1 {
		t.Fatalf("file storage not freed after unmap: %d -> %d", free0, m.fs.FreeFrames())
	}
}

func TestWriteReadBufRoundTrip(t *testing.T) {
	m := newMachine(t, 2048)
	as, _ := m.kernel.NewAddressSpace()
	va, _ := as.Mmap(MmapRequest{Pages: 8, Prot: rw, Anon: true})
	data := bytes.Repeat([]byte("roundtrip"), 3000) // 27 KB
	if err := as.WriteBuf(va, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := as.ReadBuf(va, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestMetadataTracking(t *testing.T) {
	m := newMachine(t, 2048)
	as, _ := m.kernel.NewAddressSpace()
	_, err := as.Mmap(MmapRequest{Pages: 100, Prot: rw, Anon: true, Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.kernel.TrackedPages(); got != 100 {
		t.Fatalf("TrackedPages = %d, want 100", got)
	}
	if got := m.kernel.MetadataBytes(); got != 6400 {
		t.Fatalf("MetadataBytes = %d, want 6400", got)
	}
	if n := m.kernel.meta.active.len() + m.kernel.meta.inactive.len(); n != 100 {
		t.Fatalf("LRU holds %d pages, want 100", n)
	}
}

func TestUserFaultHandler(t *testing.T) {
	m := newMachine(t, 4096)
	as, _ := m.kernel.NewAddressSpace()
	// A user-space pager that materializes page contents on demand —
	// the §3.1 "applications that need swapping could implement it
	// themselves using userfaultfd" mechanism.
	calls := 0
	handler := func(page uint64, write bool) ([]byte, error) {
		calls++
		return bytes.Repeat([]byte{byte(page + 1)}, 8), nil
	}
	va, err := as.Mmap(MmapRequest{Pages: 4, Prot: rw, Anon: true, UserFault: handler})
	if err != nil {
		t.Fatal(err)
	}
	for p := uint64(0); p < 4; p++ {
		b, err := as.ReadByteAt(va + mem.VirtAddr(p*mem.FrameSize))
		if err != nil {
			t.Fatal(err)
		}
		if b != byte(p+1) {
			t.Fatalf("page %d: byte %#x, want %#x", p, b, byte(p+1))
		}
	}
	if calls != 4 {
		t.Fatalf("handler called %d times, want 4", calls)
	}
	// Re-access: resident now, no more handler calls.
	if _, err := as.ReadByteAt(va); err != nil {
		t.Fatal(err)
	}
	if calls != 4 {
		t.Fatalf("handler re-invoked for resident page")
	}
	if m.kernel.Stats().Value("user_faults") != 4 {
		t.Fatalf("user_faults = %d", m.kernel.Stats().Value("user_faults"))
	}
}

func TestUserFaultHandlerError(t *testing.T) {
	m := newMachine(t, 1024)
	as, _ := m.kernel.NewAddressSpace()
	handler := func(page uint64, write bool) ([]byte, error) {
		return nil, errors.New("backing store unreachable")
	}
	va, err := as.Mmap(MmapRequest{Pages: 1, Prot: rw, Anon: true, UserFault: handler})
	if err != nil {
		t.Fatal(err)
	}
	var ae *AccessError
	if err := as.Touch(va, false); !errors.As(err, &ae) {
		t.Fatalf("handler error not surfaced as AccessError: %v", err)
	}
}

func TestUserFaultValidation(t *testing.T) {
	m := newMachine(t, 1024)
	as, _ := m.kernel.NewAddressSpace()
	h := func(page uint64, write bool) ([]byte, error) { return nil, nil }
	f, _ := m.fs.Create("/uf", memfs.CreateOptions{})
	f.Truncate(mem.FrameSize)
	if _, err := as.Mmap(MmapRequest{Pages: 1, Prot: rw, File: f, UserFault: h}); err == nil {
		t.Fatal("file-backed user-fault region accepted")
	}
	if _, err := as.Mmap(MmapRequest{Pages: 1, Prot: rw, Anon: true, Populate: true, UserFault: h}); err == nil {
		t.Fatal("populated user-fault region accepted")
	}
}

func TestUserFaultRegionsDoNotMerge(t *testing.T) {
	m := newMachine(t, 1024)
	as, _ := m.kernel.NewAddressSpace()
	h := func(page uint64, write bool) ([]byte, error) { return nil, nil }
	if _, err := as.Mmap(MmapRequest{Pages: 2, Prot: rw, Anon: true, UserFault: h}); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Mmap(MmapRequest{Pages: 2, Prot: rw, Anon: true, UserFault: h}); err != nil {
		t.Fatal(err)
	}
	if len(as.vmas) != 2 {
		t.Fatalf("user-fault VMAs merged: count = %d", len(as.vmas))
	}
}

func TestHugeMapping(t *testing.T) {
	m := newMachine(t, 8192)
	as, _ := m.kernel.NewAddressSpace()
	va, err := as.Mmap(MmapRequest{Pages: 1024, Prot: rw, Anon: true, Huge: true})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(va)%(mem.HugeFrames2M*mem.FrameSize) != 0 {
		t.Fatalf("huge mapping at unaligned %#x", uint64(va))
	}
	if as.pt.MappedPages() != 1024 {
		t.Fatalf("MappedPages = %d", as.pt.MappedPages())
	}
	if got := as.PageTable().PageSize(va); got != 2<<20 {
		t.Fatalf("PageSize = %d, want 2 MiB", got)
	}
	// Data plane across the whole region, no faults.
	data := bytes.Repeat([]byte{0xC3}, 3*mem.FrameSize)
	mid := va + mem.VirtAddr(700*mem.FrameSize)
	if err := as.WriteBuf(mid, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := as.ReadBuf(mid, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("huge mapping data mismatch")
	}
	if m.kernel.Stats().Value("minor_faults") != 0 {
		t.Fatalf("faults on populated huge mapping: %d", m.kernel.Stats().Value("minor_faults"))
	}
	// Teardown frees the compound runs.
	free0 := m.kernel.pool.FreeFrames()
	if err := as.Munmap(va, 1024); err != nil {
		t.Fatal(err)
	}
	if got := m.kernel.pool.FreeFrames(); got < free0+1024 {
		t.Fatalf("compound frames not freed: %d -> %d", free0, got)
	}
	if m.kernel.TrackedPages() != 0 {
		t.Fatalf("compound metadata leaked: %d", m.kernel.TrackedPages())
	}
}

func TestHugeMappingCheaperToMapAndTouch(t *testing.T) {
	m := newMachine(t, 16384)
	as, _ := m.kernel.NewAddressSpace()

	t0 := m.clock.Now()
	small, err := as.Mmap(MmapRequest{Pages: 2048, Prot: rw, Anon: true, Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	smallMap := m.clock.Since(t0)

	t1 := m.clock.Now()
	huge, err := as.Mmap(MmapRequest{Pages: 2048, Prot: rw, Anon: true, Huge: true})
	if err != nil {
		t.Fatal(err)
	}
	hugeMap := m.clock.Since(t1)

	// Huge mapping writes 4 PTEs instead of 2048 (zeroing cost is the
	// same); it must be meaningfully cheaper.
	if hugeMap >= smallMap {
		t.Fatalf("huge map (%v) not cheaper than 4K map (%v)", hugeMap, smallMap)
	}

	// TLB behaviour: strided touches over 8 MiB hit with 4 huge
	// entries but thrash 4K entries.
	as.TLB().FlushAll()
	as.TLB().Stats().Reset()
	for p := uint64(0); p < 2048; p += 8 {
		if err := as.Touch(small+mem.VirtAddr(p*mem.FrameSize), false); err != nil {
			t.Fatal(err)
		}
	}
	smallMisses := as.TLB().Stats().Value("misses")
	as.TLB().FlushAll()
	as.TLB().Stats().Reset()
	for p := uint64(0); p < 2048; p += 8 {
		if err := as.Touch(huge+mem.VirtAddr(p*mem.FrameSize), false); err != nil {
			t.Fatal(err)
		}
	}
	hugeMisses := as.TLB().Stats().Value("misses")
	if hugeMisses*10 > smallMisses {
		t.Fatalf("huge pages did not cut TLB misses: %d vs %d", hugeMisses, smallMisses)
	}
}

func TestHugeMappingValidation(t *testing.T) {
	m := newMachine(t, 4096)
	as, _ := m.kernel.NewAddressSpace()
	if _, err := as.Mmap(MmapRequest{Pages: 100, Prot: rw, Anon: true, Huge: true}); err == nil {
		t.Fatal("non-multiple-of-512 huge mapping accepted")
	}
	f, _ := m.fs.Create("/h", memfs.CreateOptions{})
	f.Truncate(512 * mem.FrameSize)
	if _, err := as.Mmap(MmapRequest{Pages: 512, Prot: rw, File: f, Huge: true}); err == nil {
		t.Fatal("file-backed huge mapping accepted")
	}
	if _, err := as.Mmap(MmapRequest{Addr: 0x40001000, Pages: 512, Prot: rw, Anon: true, Huge: true}); err == nil {
		t.Fatal("unaligned fixed huge mapping accepted")
	}
}

func TestHugeMprotect(t *testing.T) {
	m := newMachine(t, 4096)
	as, _ := m.kernel.NewAddressSpace()
	va, err := as.Mmap(MmapRequest{Pages: 512, Prot: rw, Anon: true, Huge: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := as.Mprotect(va, 512, pagetable.FlagRead|pagetable.FlagUser); err != nil {
		t.Fatal(err)
	}
	var ae *AccessError
	if err := as.Touch(va+123*mem.FrameSize, true); !errors.As(err, &ae) {
		t.Fatalf("write after huge mprotect: %v", err)
	}
}

func TestForkRejectsHugeMappings(t *testing.T) {
	m := newMachine(t, 4096)
	as, _ := m.kernel.NewAddressSpace()
	if _, err := as.Mmap(MmapRequest{Pages: 512, Prot: rw, Anon: true, Huge: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Fork(); err == nil {
		t.Fatal("fork with huge mapping accepted")
	}
}

func TestOOMWithFullSwap(t *testing.T) {
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	memory, err := mem.New(clock, &params, mem.Config{DRAMFrames: 128})
	if err != nil {
		t.Fatal(err)
	}
	kernel, err := NewKernel(clock, &params, memory, Config{
		PoolBase: 0, PoolFrames: 128, LowWater: 8, SwapFrames: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	as, err := kernel.NewAddressSpace()
	if err != nil {
		t.Fatal(err)
	}
	va, err := as.Mmap(MmapRequest{Pages: 512, Prot: rw, Anon: true})
	if err != nil {
		t.Fatal(err)
	}
	// Touch until memory and swap are both exhausted: the fault must
	// eventually fail with an out-of-memory error, not panic or hang.
	var lastErr error
	for p := uint64(0); p < 512; p++ {
		if err := as.Touch(va+mem.VirtAddr(p*mem.FrameSize), true); err != nil {
			lastErr = err
			break
		}
	}
	if lastErr == nil {
		t.Fatal("512 pages fit in a 128-frame machine with 16 swap slots")
	}
	if kernel.swap.used() == 0 {
		t.Fatal("swap never used before OOM")
	}
	// The address space is still usable for already-resident pages.
	if err := as.Touch(va, false); err != nil {
		// Page 0 may itself have been swapped out and unswappable now;
		// either way the error must be an OOM-ish error, not corruption.
		t.Logf("post-OOM touch: %v", err)
	}
}

func TestFiveLevelPaging(t *testing.T) {
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	memory, err := mem.New(clock, &params, mem.Config{DRAMFrames: 8192})
	if err != nil {
		t.Fatal(err)
	}
	k5, err := NewKernel(clock, &params, memory, Config{PoolBase: 0, PoolFrames: 4096, PageTableLevels: 5})
	if err != nil {
		t.Fatal(err)
	}
	k4, err := NewKernel(clock, &params, memory, Config{PoolBase: 4096, PoolFrames: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewKernel(clock, &params, memory, Config{PoolBase: 0, PoolFrames: 1, PageTableLevels: 3}); err == nil {
		t.Fatal("3-level paging accepted")
	}

	cost := func(k *Kernel) sim.Time {
		as, err := k.NewAddressSpace()
		if err != nil {
			t.Fatal(err)
		}
		va, err := as.Mmap(MmapRequest{Pages: 32, Prot: rw, Anon: true, Populate: true})
		if err != nil {
			t.Fatal(err)
		}
		as.TLB().FlushAll()
		t0 := clock.Now()
		for p := uint64(0); p < 32; p++ {
			if err := as.Touch(va+mem.VirtAddr(p*mem.FrameSize), false); err != nil {
				t.Fatal(err)
			}
		}
		return clock.Since(t0)
	}
	c5 := cost(k5)
	c4 := cost(k4)
	// Five levels charge one extra walk reference per TLB-missing
	// touch: 32 touches x WalkLevelRef.
	want := sim.Time(32) * params.WalkLevelRef
	if c5-c4 != want {
		t.Fatalf("5-level extra cost = %v, want %v (c5=%v c4=%v)", c5-c4, want, c5, c4)
	}
	// And the 5-level space can map beyond 48-bit reach.
	as5, _ := k5.NewAddressSpace()
	deep := mem.VirtAddr(1) << 50
	if _, err := as5.Mmap(MmapRequest{Addr: deep, Pages: 1, Prot: rw, Anon: true, Populate: true}); err != nil {
		t.Fatalf("5-level map at %#x: %v", uint64(deep), err)
	}
	if err := as5.Touch(deep, true); err != nil {
		t.Fatal(err)
	}
	as4, _ := k4.NewAddressSpace()
	if _, err := as4.Mmap(MmapRequest{Addr: deep, Pages: 1, Prot: rw, Anon: true, Populate: true}); err == nil {
		t.Fatal("4-level space accepted a 50-bit address")
	}
}
