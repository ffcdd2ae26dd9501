package pagetable

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/buddy"
	"repro/internal/mem"
	"repro/internal/sim"
)

// twin is one side of a differential run: a table under test and a
// peer table that links subtrees to and from it, on their own buddy.
type twin struct {
	clock *sim.Clock
	cpu   *sim.CPU
	bud   *buddy.Allocator
	pool  *Pool
	tbl   *Table
	peer  *Table
	cur   Cursor // cursor side only: kept across operations
	log   strings.Builder
}

func newTwin(t *testing.T, levels int) *twin {
	t.Helper()
	w := &twin{clock: &sim.Clock{}}
	params := sim.DefaultParams()
	w.cpu = sim.MachineOf(w.clock, &params).BootCPU()
	var err error
	if w.bud, err = buddy.New(w.clock, &params, 0, 1<<20); err != nil {
		t.Fatal(err)
	}
	w.pool = NewPool(w.bud)
	if w.tbl, err = New(w.cpu, &params, w.pool, levels); err != nil {
		t.Fatal(err)
	}
	if w.peer, err = New(w.cpu, &params, w.pool, levels); err != nil {
		t.Fatal(err)
	}
	w.cur = w.tbl.Cursor()
	return w
}

func (w *twin) note(format string, args ...any) { fmt.Fprintf(&w.log, format+"\n", args...) }

func (w *twin) noteErr(err error) {
	if err != nil {
		w.note("err %v", err)
	}
}

// cursorOps and refOps run the same operation through a Cursor (the
// twin's long-lived one) and through the per-page reference loops.
type tableOps interface {
	lookup(w *twin, va mem.VirtAddr) (mem.PhysAddr, Flags, bool)
	mapPage(w *twin, va mem.VirtAddr, f mem.Frame, flags Flags) error
	mapHuge(w *twin, va mem.VirtAddr, f mem.Frame, level int) error
	protect(w *twin, va mem.VirtAddr, flags Flags) error
	unmap(w *twin, va mem.VirtAddr) (mem.Frame, uint64, error)
	unmapRange(w *twin, va, end mem.VirtAddr, fn func(mem.VirtAddr, mem.Frame, uint64) error) error
}

type cursorOps struct{}

func (cursorOps) lookup(w *twin, va mem.VirtAddr) (mem.PhysAddr, Flags, bool) {
	return w.cur.Lookup(va)
}
func (cursorOps) mapPage(w *twin, va mem.VirtAddr, f mem.Frame, flags Flags) error {
	return w.cur.Map(w.cpu, va, f, flags)
}
func (cursorOps) mapHuge(w *twin, va mem.VirtAddr, f mem.Frame, level int) error {
	return w.cur.mapAt(w.cpu, va, f, FlagRead, level)
}
func (cursorOps) protect(w *twin, va mem.VirtAddr, flags Flags) error {
	return w.cur.Protect(w.cpu, va, flags)
}
func (cursorOps) unmap(w *twin, va mem.VirtAddr) (mem.Frame, uint64, error) {
	return w.cur.unmap(w.cpu, va)
}
func (cursorOps) unmapRange(w *twin, va, end mem.VirtAddr, fn func(mem.VirtAddr, mem.Frame, uint64) error) error {
	return w.cur.UnmapRange(w.cpu, va, end, fn)
}

type refOps struct{}

func (refOps) lookup(w *twin, va mem.VirtAddr) (mem.PhysAddr, Flags, bool) {
	return refLookup(w.tbl, va)
}
func (refOps) mapPage(w *twin, va mem.VirtAddr, f mem.Frame, flags Flags) error {
	return refMapEntry(w.tbl, w.cpu, va, f, flags, 1)
}
func (refOps) mapHuge(w *twin, va mem.VirtAddr, f mem.Frame, level int) error {
	return refMapEntry(w.tbl, w.cpu, va, f, FlagRead, level)
}
func (refOps) protect(w *twin, va mem.VirtAddr, flags Flags) error {
	return refProtect(w.tbl, w.cpu, va, flags)
}
func (refOps) unmap(w *twin, va mem.VirtAddr) (mem.Frame, uint64, error) {
	return refUnmap(w.tbl, w.cpu, va)
}
func (refOps) unmapRange(w *twin, va, end mem.VirtAddr, fn func(mem.VirtAddr, mem.Frame, uint64) error) error {
	for va = refNextPresent(w.tbl, va, end); va < end; {
		frame, pages, err := refUnmap(w.tbl, w.cpu, va)
		if err != nil {
			return err
		}
		if err := fn(va, frame, pages); err != nil {
			return err
		}
		va = refNextPresent(w.tbl, va+mem.VirtAddr(pages*mem.FrameSize), end)
	}
	return nil
}

// sameNodes compares two trees entry by entry, frames and reference
// counts included.
func sameNodes(a, b *node, path string) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf("%s: node presence differs", path)
	}
	if a == nil {
		return nil
	}
	if a.level != b.level || a.frame != b.frame || a.present != b.present || a.refs != b.refs {
		return fmt.Errorf("%s: node (level %d frame %d present %d refs %d) vs (level %d frame %d present %d refs %d)",
			path, a.level, a.frame, a.present, a.refs, b.level, b.frame, b.present, b.refs)
	}
	for i := range a.entries {
		ea, eb := &a.entries[i], &b.entries[i]
		if ea.present != eb.present || ea.huge != eb.huge || ea.frame != eb.frame || ea.flags != eb.flags ||
			(ea.child == nil) != (eb.child == nil) {
			return fmt.Errorf("%s/%d: entry %+v vs %+v", path, i, *ea, *eb)
		}
		if ea.child != nil {
			if err := sameNodes(ea.child, eb.child, fmt.Sprintf("%s/%d", path, i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// compareTwins checks everything observable about the two sides: the
// trees, the gauges, the simulated time, the counters, the log of
// results and errors, and the frames the next 8 allocations return
// (which pins the order nodes went back to the buddy allocator).
func compareTwins(a, b *twin) error {
	if err := sameNodes(a.tbl.root, b.tbl.root, "tbl"); err != nil {
		return err
	}
	if err := sameNodes(a.peer.root, b.peer.root, "peer"); err != nil {
		return err
	}
	for _, p := range [][2]*Table{{a.tbl, b.tbl}, {a.peer, b.peer}} {
		if p[0].MappedPages() != p[1].MappedPages() || p[0].Nodes() != p[1].Nodes() {
			return fmt.Errorf("gauges: mapped %d/%d nodes %d/%d",
				p[0].MappedPages(), p[1].MappedPages(), p[0].Nodes(), p[1].Nodes())
		}
		for _, c := range []string{"pte_writes", "node_allocs", "node_frees"} {
			if x, y := p[0].Stats().Value(c), p[1].Stats().Value(c); x != y {
				return fmt.Errorf("counter %s: %d vs %d", c, x, y)
			}
		}
	}
	if x, y := a.clock.Now(), b.clock.Now(); x != y {
		return fmt.Errorf("simulated time %d vs %d", x, y)
	}
	if x, y := a.log.String(), b.log.String(); x != y {
		return fmt.Errorf("results differ:\ncursor:\n%s\nper-page:\n%s", x, y)
	}
	var fa, fb [8]mem.Frame
	for i := range fa {
		var err error
		if fa[i], err = a.bud.AllocFrame(); err != nil {
			return err
		}
		if fb[i], err = b.bud.AllocFrame(); err != nil {
			return err
		}
	}
	for i := range fa {
		if err := a.bud.Free(fa[i]); err != nil {
			return err
		}
		if err := b.bud.Free(fb[i]); err != nil {
			return err
		}
	}
	if fa != fb {
		return fmt.Errorf("next frames %v vs %v", fa, fb)
	}
	return nil
}

// TestCursorMatchesPerPageCalls runs random operation sequences on
// twin tables over twin buddies: one side through a single cursor kept
// across the whole sequence, the other through per-page calls that
// descend from the root every time. 4 KiB runs, populate-style
// lookup-then-map runs with a frame allocation between the two,
// protect runs, range unmaps whose callback allocates a frame, 2 MiB
// and 1 GiB leaves, single unmaps that free nodes behind the cursor's
// back, links of a subtree in both directions, unlinks and a peer
// teardown all interleave, over 4- and 5-level tables and ranges that
// run up to and past MaxVirt. After every operation the two sides must
// agree on everything compareTwins checks.
func TestCursorMatchesPerPageCalls(t *testing.T) {
	const (
		mib  = mem.VirtAddr(1 << 20)
		gib  = mem.VirtAddr(1 << 30)
		peer = mem.VirtAddr(64) << 30 // the peer's window
	)
	for _, levels := range []int{Levels4, Levels5} {
		for seed := uint64(1); seed <= 6; seed++ {
			a, b := newTwin(t, levels), newTwin(t, levels)
			top := a.tbl.MaxVirt()
			// Three windows of 8 MiB: low, just past 1 GiB, and the
			// last 8 MiB below MaxVirt.
			windows := [3]mem.VirtAddr{0, gib + 4*mib, top - 8*mib}
			rng := sim.NewRNG(seed)
			randVA := func() mem.VirtAddr {
				return windows[rng.Intn(3)] + mem.VirtAddr(rng.Intn(2048))*mem.FrameSize
			}
			rand2M := func() mem.VirtAddr { return randVA() &^ (2*mib - 1) }
			flagsOf := func() Flags { return Flags(1 + rng.Intn(31)) }
			// The peer starts with two populated leaf nodes to link from.
			for _, w := range []*twin{a, b} {
				if err := w.peer.MapRange(w.cpu, peer, 900, 2*512, FlagRead); err != nil {
					t.Fatal(err)
				}
			}
			for step := 0; step < 400; step++ {
				op := rng.Intn(13)
				va := randVA()
				pages := uint64(1 + rng.Intn(700))
				f := mem.Frame(rng.Intn(1 << 20))
				fl := flagsOf()
				peerVA := peer + mem.VirtAddr(rng.Intn(4))*2*mib
				huge1G := [3]mem.VirtAddr{0, gib, top - gib}[rng.Intn(3)]
				va2M := rand2M()
				coin := rng.Intn(4)
				for i, w := range []*twin{a, b} {
					var o tableOps = cursorOps{}
					if i == 1 {
						o = refOps{}
					}
					w.note("op %d", op)
					switch op {
					case 0, 1: // a run of 4 KiB maps
						for p := uint64(0); p < pages; p++ {
							w.noteErr(o.mapPage(w, va+mem.VirtAddr(p*mem.FrameSize), f+mem.Frame(p), fl))
						}
					case 2, 3: // populate: probe, allocate, map
						for p := uint64(0); p < pages; p++ {
							pva := va + mem.VirtAddr(p*mem.FrameSize)
							if _, _, ok := o.lookup(w, pva); ok {
								continue
							}
							nf, err := w.bud.AllocFrame()
							if err != nil {
								t.Fatal(err)
							}
							w.noteErr(o.mapPage(w, pva, nf, fl))
						}
					case 4: // protect run, holes included
						for p := uint64(0); p < pages; p++ {
							w.noteErr(o.protect(w, va+mem.VirtAddr(p*mem.FrameSize), fl))
						}
					case 5, 6: // range unmap; the callback allocates
						end := va + mem.VirtAddr(pages*mem.FrameSize)
						if coin == 0 || end > top {
							end = top
						}
						var got []mem.Frame
						err := o.unmapRange(w, va, end, func(uva mem.VirtAddr, frame mem.Frame, n uint64) error {
							nf, err := w.bud.AllocFrame()
							got = append(got, nf)
							w.note("unmapped %#x frame %d pages %d next %d", uint64(uva), frame, n, nf)
							return err
						})
						w.noteErr(err)
						for _, nf := range got {
							if err := w.bud.Free(nf); err != nil {
								t.Fatal(err)
							}
						}
					case 7: // single unmaps, outside the cursor on its side
						for p := uint64(0); p < pages%8; p++ {
							uva := va + mem.VirtAddr(p*mem.FrameSize)
							var frame mem.Frame
							var n uint64
							var err error
							if i == 0 {
								frame, n, err = w.tbl.Unmap(w.cpu, uva)
							} else {
								frame, n, err = refUnmap(w.tbl, w.cpu, uva)
							}
							w.note("unmap %#x: %d %d", uint64(uva), frame, n)
							w.noteErr(err)
						}
					case 8: // cursor unmaps
						for p := uint64(0); p < pages%64; p++ {
							frame, n, err := o.unmap(w, va+mem.VirtAddr(p*mem.FrameSize))
							w.note("%d %d", frame, n)
							w.noteErr(err)
						}
					case 9: // huge leaves
						if coin == 0 {
							w.noteErr(o.mapHuge(w, huge1G, mem.Frame(mem.HugeFrames1G), 3))
						} else {
							w.noteErr(o.mapHuge(w, va2M, mem.Frame(mem.HugeFrames2M), 2))
						}
					case 10: // share: ours into the peer, or the peer's into ours
						if pages%2 == 0 {
							w.noteErr(w.peer.LinkSubtree(w.cpu, peerVA+8*mib, w.tbl, va2M, 2))
						} else {
							w.noteErr(w.tbl.LinkSubtree(w.cpu, va2M, w.peer, peerVA&^(2*mib-1), 2))
						}
					case 11: // unshare
						if pages%2 == 0 {
							w.noteErr(w.peer.UnlinkSubtree(w.cpu, peerVA+8*mib, 2))
						} else {
							w.noteErr(w.tbl.UnlinkSubtree(w.cpu, va2M, 2))
						}
					case 12: // lookups
						for p := uint64(0); p < pages; p++ {
							pa, flags, ok := o.lookup(w, va+mem.VirtAddr(p*mem.FrameSize))
							w.note("%#x %v %v", uint64(pa), flags, ok)
						}
					}
				}
				if err := compareTwins(a, b); err != nil {
					t.Fatalf("levels=%d seed=%d step %d op %d: %v", levels, seed, step, op, err)
				}
			}
			// Tear the peer down: it frees the links into ours.
			for _, w := range []*twin{a, b} {
				w.noteErr(w.peer.Destroy())
			}
			if err := compareTwins(a, b); err != nil {
				t.Fatalf("levels=%d seed=%d after peer teardown: %v", levels, seed, err)
			}
		}
	}
}
