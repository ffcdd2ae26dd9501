package usermode

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tier"
)

// newTable builds a small two-CPU machine with a grant table over the
// given pool size (and an optional fast pool) for tests.
func newTable(t *testing.T, poolFrames, fastFrames uint64, batch uint64) (*sim.Machine, *mem.Memory, *GrantTable) {
	t.Helper()
	params := sim.DefaultParams()
	machine := sim.NewMachine(&params, 2, 1)
	memory, err := mem.New(machine.Clock(), &params, mem.Config{
		DRAMFrames: 4096,
		NVMFrames:  8192,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{PoolBase: 0, PoolFrames: poolFrames, BatchPages: batch}
	if fastFrames > 0 {
		// Fast pool in DRAM, primary pool in NVM.
		cfg = Config{
			PoolBase: 4096, PoolFrames: poolFrames,
			FastBase: 0, FastFrames: fastFrames,
			BatchPages: batch,
		}
	}
	gt, err := NewGrantTable(machine.Clock(), &params, memory, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return machine, memory, gt
}

func TestAllocReturnsZeroedGrantedMemory(t *testing.T) {
	machine, _, gt := newTable(t, 1024, 0, 64)
	p, err := gt.NewProcessOn(machine.BootCPU())
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.AllocPages(3)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3*mem.FrameSize)
	if err := p.ReadBuf(r.Base(), buf); err != nil {
		t.Fatal(err)
	}
	for i, v := range buf {
		if v != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, v)
		}
	}
	data := []byte("granted extents, no kernel in sight")
	if err := p.WriteBuf(r.Base(), data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := p.ReadBuf(r.Base(), got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatal("round trip mismatch")
	}
	if err := machine.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAccessOutsideGrantsRejected(t *testing.T) {
	machine, _, gt := newTable(t, 1024, 0, 64)
	p, err := gt.NewProcessOn(machine.BootCPU())
	if err != nil {
		t.Fatal(err)
	}
	// Well past the pool: never granted.
	far := mem.VirtAddr(mem.Frame(2048).Addr())
	if err := p.WriteBuf(far, []byte{1}); err == nil {
		t.Fatal("write outside grants succeeded")
	}
	if err := p.ReadBuf(far, make([]byte, 1)); err == nil {
		t.Fatal("read outside grants succeeded")
	}
	// A freed-and-revoked extent is no longer accessible either.
	r, err := p.AllocPages(64)
	if err != nil {
		t.Fatal(err)
	}
	base := r.Base()
	if err := p.FreeRegion(r); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Reclaim(); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteBuf(base, []byte{1}); err == nil {
		t.Fatal("write to revoked grant succeeded")
	}
}

func TestReclaimRevokesOnlyWhollyFreeUnpinned(t *testing.T) {
	machine, _, gt := newTable(t, 1024, 0, 32)
	p, err := gt.NewProcessOn(machine.BootCPU())
	if err != nil {
		t.Fatal(err)
	}
	// Force several distinct grants, then free some allocations.
	var regs []heap.Region
	for i := 0; i < 4; i++ {
		r, err := p.AllocPages(32)
		if err != nil {
			t.Fatal(err)
		}
		regs = append(regs, r)
	}
	// Grant 0 stays allocated; grants 1..3 become wholly free.
	for _, r := range regs[1:] {
		if err := p.FreeRegion(r); err != nil {
			t.Fatal(err)
		}
	}
	// Pin one of the free ones.
	if err := p.Pin(regs[1].Base()); err != nil {
		t.Fatal(err)
	}
	revoked, err := p.Reclaim()
	if err != nil {
		t.Fatal(err)
	}
	if revoked != 2 {
		t.Fatalf("revoked %d extents, want 2 (one live, one pinned)", revoked)
	}
	if err := machine.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Unpin and the last free grant goes too.
	if err := p.Unpin(regs[1].Base()); err != nil {
		t.Fatal(err)
	}
	if revoked, err = p.Reclaim(); err != nil || revoked != 1 {
		t.Fatalf("after unpin: revoked=%d err=%v, want 1, nil", revoked, err)
	}
	if err := machine.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedSegRefcounting(t *testing.T) {
	machine, _, gt := newTable(t, 1024, 0, 64)
	a, err := gt.NewProcessOn(machine.BootCPU())
	if err != nil {
		t.Fatal(err)
	}
	b, err := gt.NewProcessOn(machine.CPU(1))
	if err != nil {
		t.Fatal(err)
	}
	seg, err := gt.NewShared(a, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.MapShared(seg); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteBuf(seg.Base(), []byte{0x5A}); err != nil {
		t.Fatal(err)
	}
	var got [1]byte
	if err := b.ReadBuf(seg.Base(), got[:]); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x5A {
		t.Fatalf("b sees %#x through shared segment, want 0x5A", got[0])
	}
	if err := a.UnmapShared(seg); err != nil {
		t.Fatal(err)
	}
	// Still mapped by b.
	if err := b.ReadBuf(seg.Base(), got[:]); err != nil {
		t.Fatal(err)
	}
	if err := b.UnmapShared(seg); err != nil {
		t.Fatal(err)
	}
	// Last unmap freed the segment: no longer accessible.
	if err := b.ReadBuf(seg.Base(), got[:]); err == nil {
		t.Fatal("read of freed shared segment succeeded")
	}
	if err := machine.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNoKernelTransitionsEver(t *testing.T) {
	machine, _, gt := newTable(t, 4000, 0, 32)
	p, err := gt.NewProcessOn(machine.BootCPU())
	if err != nil {
		t.Fatal(err)
	}
	h := heap.NewOn(p)
	sizes := []uint64{24, 240, 2400}
	var ptrs []mem.VirtAddr
	for i := 0; i < 200; i++ {
		a, err := h.Alloc(sizes[i%len(sizes)])
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, a)
		if i%3 == 0 && len(ptrs) > 1 {
			if err := h.Free(ptrs[0]); err != nil {
				t.Fatal(err)
			}
			ptrs = ptrs[1:]
		}
	}
	if n := gt.Stats().Value("kernel_transitions"); n != 0 {
		t.Fatalf("%d kernel transitions", n)
	}
	s, c := gt.Stats().Value("queue_submits"), gt.Stats().Value("queue_completes")
	if s == 0 || s != c {
		t.Fatalf("queue submits=%d completes=%d", s, c)
	}
	if err := machine.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHeapOnUsermodeSpace(t *testing.T) {
	machine, _, gt := newTable(t, 2048, 0, 512)
	p, err := gt.NewProcessOn(machine.BootCPU())
	if err != nil {
		t.Fatal(err)
	}
	h := heap.NewOn(p)
	a, err := h.Alloc(1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Write(a, []byte("heap over granted physical extents")); err != nil {
		t.Fatal(err)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every region the heap holds must sit inside this process's
	// grants — the containment invariant checks the same thing from
	// the grant table's side.
	h.Regions(func(r heap.Region) {
		if err := p.ReadBuf(r.Base(), make([]byte, 1)); err != nil {
			t.Errorf("heap region %#x outside grants: %v", uint64(r.Base()), err)
		}
	})
	if err := h.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := machine.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateFrameRelocatesWholeExtent(t *testing.T) {
	machine, memory, gt := newTable(t, 1024, 256, 64)
	params := machine.Params()
	eng, err := tier.New(params, memory, tier.Smart, 128)
	if err != nil {
		t.Fatal(err)
	}
	gt.SetEngine(eng)
	p, err := gt.NewProcessOn(machine.BootCPU())
	if err != nil {
		t.Fatal(err)
	}
	var moved []string
	p.SetRelocate(func(old, new mem.VirtAddr, pages uint64) {
		moved = append(moved, fmt.Sprintf("%#x->%#x/%d", uint64(old), uint64(new), pages))
	})
	r, err := p.AllocPages(64)
	if err != nil {
		t.Fatal(err)
	}
	base := r.Base()
	pattern := []byte("relocated bytes must survive the move")
	if err := p.WriteBuf(base, pattern); err != nil {
		t.Fatal(err)
	}
	srcFrame := mem.PhysAddr(base).Frame()
	srcKind := memory.Kind(srcFrame)
	dstKind := mem.NVM
	if srcKind == mem.NVM {
		dstKind = mem.DRAM
	}
	pages, ok := gt.MigrateFrame(machine.BootCPU(), srcFrame, dstKind)
	if !ok {
		t.Fatal("migration declined")
	}
	if len(moved) != 1 {
		t.Fatalf("relocation callback ran %d times, want 1", len(moved))
	}
	if pages == 0 {
		t.Fatal("migrated 0 pages")
	}
	// The callback's new base is where the bytes now live; the test's
	// handle to them moved with the extent.
	var newBase mem.VirtAddr
	for b := range p.allocs {
		newBase = b
	}
	if memory.Kind(mem.PhysAddr(newBase).Frame()) != dstKind {
		t.Fatalf("relocated extent in %v, want %v", memory.Kind(mem.PhysAddr(newBase).Frame()), dstKind)
	}
	got := make([]byte, len(pattern))
	if err := p.ReadBuf(newBase, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(pattern) {
		t.Fatal("content lost in migration")
	}
	// The vacated address is gone.
	if err := p.ReadBuf(base, got); err == nil {
		t.Fatal("old address still readable after migration")
	}
	if err := machine.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateDeclinesPinnedAndCallbackless(t *testing.T) {
	machine, memory, gt := newTable(t, 1024, 256, 64)
	eng, err := tier.New(machine.Params(), memory, tier.Smart, 128)
	if err != nil {
		t.Fatal(err)
	}
	gt.SetEngine(eng)
	p, err := gt.NewProcessOn(machine.BootCPU())
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.AllocPages(16)
	if err != nil {
		t.Fatal(err)
	}
	f := mem.PhysAddr(r.Base()).Frame()
	to := mem.NVM
	if memory.Kind(f) == mem.NVM {
		to = mem.DRAM
	}
	// No relocation callback: decline.
	if _, ok := gt.MigrateFrame(machine.BootCPU(), f, to); ok {
		t.Fatal("migrated a callback-less process's extent")
	}
	p.SetRelocate(func(old, new mem.VirtAddr, pages uint64) {})
	if err := p.Pin(r.Base()); err != nil {
		t.Fatal(err)
	}
	if _, ok := gt.MigrateFrame(machine.BootCPU(), f, to); ok {
		t.Fatal("migrated a pinned extent")
	}
	if err := p.Unpin(r.Base()); err != nil {
		t.Fatal(err)
	}
	if _, ok := gt.MigrateFrame(machine.BootCPU(), f, to); !ok {
		t.Fatal("unpinned migratable extent declined")
	}
	if err := machine.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// --- seeded grant-exhaustion/refill property test, with shrinking ---

// propOp is one step of the property trace. Kept tiny so a shrunk
// reproducer prints readably.
type propOp struct {
	kind  byte   // 'a' alloc, 'f' free, 'w' write, 'r' reclaim, 'p' pin, 'u' unpin
	pages uint64 // alloc size
	idx   int    // target selector for free/write/pin/unpin
}

func (o propOp) String() string {
	switch o.kind {
	case 'a':
		return fmt.Sprintf("alloc %d", o.pages)
	case 'f':
		return fmt.Sprintf("free #%d", o.idx)
	case 'w':
		return fmt.Sprintf("write #%d", o.idx)
	case 'r':
		return "reclaim"
	case 'p':
		return fmt.Sprintf("pin #%d", o.idx)
	default:
		return fmt.Sprintf("unpin #%d", o.idx)
	}
}

// genPropTrace derives a trace from a seed. The pool is kept tiny
// relative to the allocation sizes, so refills regularly exhaust the
// pool and the error path (alloc fails cleanly, nothing is granted)
// runs many times per trace.
func genPropTrace(seed uint64, n int) []propOp {
	rng := sim.NewRNG(seed)
	ops := make([]propOp, n)
	for i := range ops {
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			ops[i] = propOp{kind: 'a', pages: uint64(1 + rng.Intn(96))}
		case 4, 5:
			ops[i] = propOp{kind: 'f', idx: rng.Intn(8)}
		case 6, 7:
			ops[i] = propOp{kind: 'w', idx: rng.Intn(8)}
		case 8:
			ops[i] = propOp{kind: 'r'}
		default:
			if rng.Intn(2) == 0 {
				ops[i] = propOp{kind: 'p', idx: rng.Intn(8)}
			} else {
				ops[i] = propOp{kind: 'u', idx: rng.Intn(8)}
			}
		}
	}
	return ops
}

// replayProp replays a trace on a fresh small-pool table and returns
// an error if any property is violated: an access lands outside
// granted extents, contents are lost, exhaustion corrupts state, or a
// machine invariant breaks.
func replayProp(trace []propOp) error {
	params := sim.DefaultParams()
	machine := sim.NewMachine(&params, 2, 99)
	memory, err := mem.New(machine.Clock(), &params, mem.Config{DRAMFrames: 512, NVMFrames: 512})
	if err != nil {
		return err
	}
	// 256-frame pool, 32-page batches: a handful of 96-page allocs
	// exhausts it.
	gt, err := NewGrantTable(machine.Clock(), &params, memory, Config{
		PoolBase: 0, PoolFrames: 256, BatchPages: 32,
	})
	if err != nil {
		return err
	}
	p, err := gt.NewProcessOn(machine.BootCPU())
	if err != nil {
		return err
	}
	type liveAlloc struct {
		r   heap.Region
		tag byte
	}
	var live []liveAlloc
	var tag byte
	for i, op := range trace {
		switch op.kind {
		case 'a':
			r, err := p.AllocPages(op.pages)
			if err != nil {
				// Exhaustion must be clean: state stays consistent and
				// later ops still work.
				if !strings.Contains(err.Error(), "exhausted") {
					return fmt.Errorf("op %d (%s): unexpected error: %v", i, op, err)
				}
				break
			}
			tag++
			if tag == 0 {
				tag = 1
			}
			if err := p.WriteBuf(r.Base(), []byte{tag}); err != nil {
				return fmt.Errorf("op %d (%s): write to fresh alloc: %v", i, op, err)
			}
			live = append(live, liveAlloc{r, tag})
		case 'f':
			if len(live) == 0 {
				break
			}
			j := op.idx % len(live)
			if err := p.FreeRegion(live[j].r); err != nil {
				return fmt.Errorf("op %d (%s): %v", i, op, err)
			}
			live = append(live[:j], live[j+1:]...)
		case 'w':
			if len(live) == 0 {
				break
			}
			j := op.idx % len(live)
			var got [1]byte
			if err := p.ReadBuf(live[j].r.Base(), got[:]); err != nil {
				return fmt.Errorf("op %d (%s): %v", i, op, err)
			}
			if got[0] != live[j].tag {
				return fmt.Errorf("op %d (%s): tag %#x, want %#x", i, op, got[0], live[j].tag)
			}
			if err := p.WriteBuf(live[j].r.Base(), []byte{live[j].tag}); err != nil {
				return fmt.Errorf("op %d (%s): %v", i, op, err)
			}
		case 'r':
			if _, err := p.Reclaim(); err != nil {
				return fmt.Errorf("op %d (%s): %v", i, op, err)
			}
		case 'p', 'u':
			if len(live) == 0 {
				break
			}
			j := op.idx % len(live)
			var err error
			if op.kind == 'p' {
				err = p.Pin(live[j].r.Base())
			} else {
				err = p.Unpin(live[j].r.Base())
			}
			if err != nil {
				return fmt.Errorf("op %d (%s): %v", i, op, err)
			}
		}
		if err := machine.CheckInvariants(); err != nil {
			return fmt.Errorf("op %d (%s): %v", i, op, err)
		}
	}
	return nil
}

// shrinkProp greedily removes ops while the trace still fails,
// returning a minimal reproducer.
func shrinkProp(trace []propOp, budget int) []propOp {
	for pass := 0; pass < 8 && budget > 0; pass++ {
		shrunk := false
		for i := 0; i < len(trace) && budget > 0; i++ {
			cand := append(append([]propOp{}, trace[:i]...), trace[i+1:]...)
			budget--
			if replayProp(cand) != nil {
				trace = cand
				shrunk = true
				i--
			}
		}
		if !shrunk {
			break
		}
	}
	return trace
}

// TestGrantExhaustionRefillProperty is the seeded property test: under
// a tiny pool, allocations exhaust and refill grants constantly, and
// the allocator must never touch a frame outside its granted extents
// (every replay step checks the machine invariants, and every access
// goes through the bounds checker). Failures shrink to a minimal
// trace.
func TestGrantExhaustionRefillProperty(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		trace := genPropTrace(seed, 400)
		if err := replayProp(trace); err != nil {
			min := shrinkProp(trace, 400)
			lines := make([]string, len(min))
			for i, op := range min {
				lines[i] = "  " + op.String()
			}
			t.Fatalf("seed %d: %v\nshrunk reproducer (%d ops):\n%s",
				seed, err, len(min), strings.Join(lines, "\n"))
		}
	}
}
