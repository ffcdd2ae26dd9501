package o1mem

// scenario_test.go runs a full-system integration scenario across every
// subsystem: machine boot, program launch on both memory backends, a
// shared database file, heap allocation through the user-level
// allocator, allocation churn, memory pressure, a crash, and recovery.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/pagetable"
	"repro/internal/vm"
	"repro/internal/workload"
)

// bothBackends is one program launched on the baseline kernel and on
// file-only memory: a read-exec code segment holding NOPs and a
// read-write heap of the requested size.
type bothBackends struct {
	baseline     *vm.AddressSpace
	fom          *core.Process
	textB, heapB mem.VirtAddr
	textF, heapF mem.VirtAddr
}

const (
	rx = pagetable.FlagRead | pagetable.FlagExec | pagetable.FlagUser
	rw = pagetable.FlagRead | pagetable.FlagWrite | pagetable.FlagUser
)

// launchBoth launches the same four-page program on both backends of m.
func launchBoth(t *testing.T, m *bench.Machine, heapPages uint64) bothBackends {
	t.Helper()
	nops := bytes.Repeat([]byte{0x90}, 4*mem.FrameSize)
	code := memfs.CreateOptions{Mode: rx, Durability: memfs.Persistent}

	// Baseline: the code file lives on tmpfs and is mapped privately;
	// the heap is an anonymous mapping faulted in on first touch.
	codeB, err := m.Tmpfs.Create("/prog", code)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codeB.WriteAt(nops, 0); err != nil {
		t.Fatal(err)
	}
	baseline, err := m.Kernel.NewAddressSpace()
	if err != nil {
		t.Fatal(err)
	}
	textB, err := baseline.Mmap(vm.MmapRequest{Pages: 4, Prot: rx, File: codeB, Private: true})
	if err != nil {
		t.Fatal(err)
	}
	heapB, err := baseline.Mmap(vm.MmapRequest{Pages: heapPages, Prot: rw, Anon: true, Private: true})
	if err != nil {
		t.Fatal(err)
	}
	// File-only memory: the code file is a contiguous persistent file
	// mapped in O(1); the heap is a single-extent volatile file.
	codeF, err := m.FOM.CreateContiguousFile("/prog", 4, code, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codeF.WriteAt(nops, 0); err != nil {
		t.Fatal(err)
	}
	fomProc, err := m.FOM.NewProcess(core.Ranges)
	if err != nil {
		t.Fatal(err)
	}
	textF, err := fomProc.MapFile(codeF, rx)
	if err != nil {
		t.Fatal(err)
	}
	heapF, err := fomProc.AllocVolatile(heapPages, rw)
	if err != nil {
		t.Fatal(err)
	}
	return bothBackends{
		baseline: baseline, fom: fomProc,
		textB: textB, heapB: heapB,
		textF: textF.Base(), heapF: heapF.Base(),
	}
}

// heapIO is one backend's heap and its byte accessors.
type heapIO struct {
	name  string
	write func(mem.VirtAddr, []byte) error
	read  func(mem.VirtAddr, []byte) error
	heap  mem.VirtAddr
}

// heaps lists each backend's heap accessors.
func (b bothBackends) heaps() []heapIO {
	return []heapIO{
		{"baseline", b.baseline.WriteBuf, b.baseline.ReadBuf, b.heapB},
		{"fom", b.fom.WriteBuf, b.fom.ReadBuf, b.heapF},
	}
}

func newScenarioMachine(t *testing.T) *bench.Machine {
	t.Helper()
	m, err := bench.NewMachineN(1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCodeWriteProtected(t *testing.T) {
	b := launchBoth(t, newScenarioMachine(t), 64)
	if err := b.baseline.Touch(b.textB, true); err == nil {
		t.Fatal("baseline: write to code segment accepted")
	}
	if err := b.fom.Touch(b.textF, true); err == nil {
		t.Fatal("fom: write to code segment accepted")
	}
}

func TestSameWorkloadBothBackends(t *testing.T) {
	// The same heap workload must produce identical data on both
	// backends — only the costs differ.
	b := launchBoth(t, newScenarioMachine(t), 128)
	for _, p := range b.heaps() {
		for i := uint64(0); i < 128; i++ {
			if err := p.write(p.heap+mem.VirtAddr(i*mem.FrameSize), []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, p := range b.heaps() {
		for i := uint64(0); i < 128; i += 17 {
			var got [1]byte
			if err := p.read(p.heap+mem.VirtAddr(i*mem.FrameSize), got[:]); err != nil {
				t.Fatal(err)
			}
			if got[0] != byte(i) {
				t.Fatalf("%s heap[%d] = %d", p.name, i, got[0])
			}
		}
	}
}

func TestFullSystemScenario(t *testing.T) {
	m := newScenarioMachine(t)

	// --- Phase 1: launch the same program on both backends ---------
	b := launchBoth(t, m, 64)
	baseline, fomProc := b.baseline, b.fom
	payload := bytes.Repeat([]byte("scenario"), 2048) // 16 KB
	for _, p := range b.heaps() {
		if err := p.write(p.heap, payload); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(payload))
		if err := p.read(p.heap, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("%s heap round trip failed", p.name)
		}
	}

	// --- Phase 2: a shared persistent database + user-level heap ---
	db, err := m.FOM.CreateContiguousFile("/db", 1024,
		memfs.CreateOptions{Durability: memfs.Persistent}, true)
	if err != nil {
		t.Fatal(err)
	}
	writer, err := m.FOM.NewProcess(core.SharedPT)
	if err != nil {
		t.Fatal(err)
	}
	reader, err := m.FOM.NewProcess(core.Ranges)
	if err != nil {
		t.Fatal(err)
	}
	wm, err := writer.MapFile(db, rw)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := reader.MapFile(db, rw)
	if err != nil {
		t.Fatal(err)
	}
	if wm.Base() != rm.Base() {
		t.Fatal("PBM addresses differ across translation modes")
	}
	if err := writer.WriteBuf(wm.Base()+4096, []byte("db-record-1")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 11)
	if err := reader.ReadBuf(rm.Base()+4096, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "db-record-1" {
		t.Fatalf("cross-process read: %q", got)
	}

	// Heap objects inside the reader process.
	h := heap.New(reader)
	var objs []mem.VirtAddr
	for i := 0; i < 50; i++ {
		o, err := h.Alloc(uint64(100 + i*37))
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Write(o, []byte(fmt.Sprintf("obj-%d", i))); err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
	}
	for i, o := range objs {
		buf := make([]byte, 8)
		if err := h.Read(o, buf); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("obj-%d", i)
		if string(buf[:len(want)]) != want {
			t.Fatalf("heap object %d corrupted: %q", i, buf)
		}
	}

	// --- Phase 3: a heap-trace-shaped churn on the same machine ----
	sizes, err := workload.AllocSizes(workload.SmallHeavy, 300, 1, 64, 9)
	if err != nil {
		t.Fatal(err)
	}
	churnProc, err := m.FOM.NewProcess(core.Ranges)
	if err != nil {
		t.Fatal(err)
	}
	churn := make([]*core.Mapping, len(sizes))
	for i, pages := range sizes {
		mp, err := churnProc.AllocVolatile(pages, rw)
		if err != nil {
			t.Fatal(err)
		}
		last := mp.Base() + mem.VirtAddr((pages-1)*mem.FrameSize)
		for _, va := range []mem.VirtAddr{mp.Base(), last} {
			if err := churnProc.WriteBuf(va, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		churn[i] = mp
	}
	for i := 0; i < len(churn); i += 2 {
		if err := churnProc.Unmap(churn[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := churnProc.Exit(); err != nil {
		t.Fatal(err)
	}

	// --- Phase 4: memory pressure against discardable caches -------
	cache, err := m.FOM.CreateContiguousFile("/cache", 2048,
		memfs.CreateOptions{Discardable: true}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}
	freed, err := m.FOM.DiscardUnderPressure(1024)
	if err != nil {
		t.Fatal(err)
	}
	if freed < 1024 {
		t.Fatalf("pressure freed only %d frames", freed)
	}

	// --- Phase 5: crash and recovery -------------------------------
	for _, o := range objs {
		if err := h.Free(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := fomProc.Exit(); err != nil {
		t.Fatal(err)
	}
	if err := baseline.Destroy(); err != nil {
		t.Fatal(err)
	}
	m.Memory.Crash()
	if _, err := m.FOM.Remount(); err != nil {
		t.Fatal(err)
	}

	db2, err := m.FOM.FS().Open("/db")
	if err != nil {
		t.Fatalf("database lost in crash: %v", err)
	}
	survivor, err := m.FOM.NewProcess(core.Ranges)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := survivor.MapFile(db2, rw)
	if err != nil {
		t.Fatal(err)
	}
	if err := survivor.ReadBuf(sm.Base()+4096, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "db-record-1" {
		t.Fatalf("database corrupted by crash: %q", got)
	}
	// The program file was persistent too.
	if _, err := m.FOM.FS().Open("/prog"); err != nil {
		t.Fatalf("program file lost: %v", err)
	}
	if err := m.FOM.FS().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("scenario complete at virtual time %v", m.Clock.Now())
}
