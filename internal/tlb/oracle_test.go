package tlb

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/sim"
)

// refEntry and refArray are the scan-based TLB array the generation
// counter and the tag/translation split replaced: one slot struct with
// a per-entry valid flag, sets picked by modulo, a victim scan that
// copies out the evicted entry, and a full flush that clears every
// flag. They survive only as the oracle below.
type refEntry struct {
	valid bool
	asid  int
	vpn   uint64
	tr    Translation
	lru   uint64
}

type refArray struct {
	sets  int
	ways  int
	data  []refEntry
	stamp uint64
}

func newRefArray(sets, ways int) *refArray {
	return &refArray{sets: sets, ways: ways, data: make([]refEntry, sets*ways)}
}

func (a *refArray) find(asid int, vpn uint64) *refEntry {
	base := int(vpn%uint64(a.sets)) * a.ways
	for i := 0; i < a.ways; i++ {
		e := &a.data[base+i]
		if e.valid && e.asid == asid && e.vpn == vpn {
			return e
		}
	}
	return nil
}

func (a *refArray) lookup(asid int, vpn uint64) (*refEntry, bool) {
	e := a.find(asid, vpn)
	if e == nil {
		return nil, false
	}
	a.stamp++
	e.lru = a.stamp
	return e, true
}

func (a *refArray) peek(asid int, vpn uint64) (*refEntry, bool) {
	e := a.find(asid, vpn)
	return e, e != nil
}

func (a *refArray) insert(asid int, vpn uint64, tr Translation) (evicted refEntry, wasEvict bool) {
	base := int(vpn%uint64(a.sets)) * a.ways
	victim := base
	for i := 0; i < a.ways; i++ {
		e := &a.data[base+i]
		if e.valid && e.asid == asid && e.vpn == vpn {
			victim = base + i
			break
		}
		if !e.valid {
			victim = base + i
			break
		}
		if e.lru < a.data[victim].lru {
			victim = base + i
		}
	}
	v := &a.data[victim]
	if v.valid && !(v.asid == asid && v.vpn == vpn) {
		evicted, wasEvict = *v, true
	}
	a.stamp++
	*v = refEntry{valid: true, asid: asid, vpn: vpn, tr: tr, lru: a.stamp}
	return evicted, wasEvict
}

func (a *refArray) invalidate(asid int, vpn uint64) bool {
	e := a.find(asid, vpn)
	if e != nil {
		e.valid = false
	}
	return e != nil
}

func (a *refArray) flush() {
	for i := range a.data {
		a.data[i].valid = false
	}
}

type visited struct {
	asid int
	va   mem.VirtAddr
	tr   Translation
}

// refVisit lists the oracle's valid entries in VisitEntries order:
// slot order within l1 4K, l1 huge, then l2, with the same address
// decoding.
func refVisit(refs [3]*refArray) []visited {
	var out []visited
	for i, a := range refs {
		for _, e := range a.data {
			if !e.valid {
				continue
			}
			var va mem.VirtAddr
			switch {
			case i == 0:
				va = mem.VirtAddr(e.vpn << 12)
			case i == 1 && e.tr.Size == Size1G:
				va = mem.VirtAddr(e.vpn << 30)
			case i == 1:
				va = mem.VirtAddr(e.vpn << 21)
			default:
				switch PageSize(e.vpn & 3) {
				case Size4K:
					va = mem.VirtAddr(e.vpn >> 2 << 12)
				case Size2M:
					va = mem.VirtAddr(e.vpn >> 2 << 21)
				default:
					va = mem.VirtAddr(e.vpn >> 2 << 30)
				}
			}
			out = append(out, visited{e.asid, va, e.tr})
		}
	}
	return out
}

// sameEntry reports whether the slot's tag and translation agree with
// the oracle's entry on everything but the validity encoding.
func sameEntry(e tag, tr Translation, r refEntry) bool {
	return e.asid == r.asid && e.vpn == r.vpn && tr == r.tr && e.lru == r.lru
}

// TestGenerationFlushMatchesScanOracle drives the three arrays of a
// default-geometry TLB and three scan-based oracles through the same
// random lookups, peeks, inserts, invalidations and full flushes. Hits,
// evicted entries (read from a copy of the set taken before the
// insert), every slot with its LRU stamp, ValidEntries and
// VisitEntries must agree after every step: the generation counter,
// the split slot layout and the two-pass victim choice change how the
// work is paid for, never which entries survive or which way is
// evicted.
func TestGenerationFlushMatchesScanOracle(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			tl, _, _ := newTLB(t)
			arrays := [3]*array{tl.l14k, tl.l1huge, tl.l2}
			var refs [3]*refArray
			for i, a := range arrays {
				refs[i] = newRefArray(int(a.mask)+1, a.ways)
			}
			rng := sim.NewRNG(seed)
			randTr := func(arr int) Translation {
				size := Size4K
				switch arr {
				case 1:
					size = Size2M + PageSize(rng.Intn(2))
				case 2:
					size = PageSize(rng.Intn(3))
				}
				return Translation{
					Frame: mem.Frame(rng.Uint64n(1 << 20)),
					Size:  size,
					Flags: pagetable.Flags(rng.Intn(32)),
				}
			}
			flushes := 0
			for step := 0; step < 20000; step++ {
				i := rng.Intn(3)
				a, r := arrays[i], refs[i]
				asid := 1 + rng.Intn(3)
				vpn := rng.Uint64n(2 * uint64(len(a.tags)))
				switch op := rng.Intn(100); {
				case op < 35:
					_, slot := a.find(asid, vpn)
					tr := a.lookup(asid, vpn)
					re, rok := r.lookup(asid, vpn)
					if ok := tr != nil; ok != rok || ok && (tr != &a.trs[slot] || !sameEntry(a.tags[slot], *tr, *re)) {
						t.Fatalf("step %d: array %d lookup(%d, %d) = %v, oracle %v", step, i, asid, vpn, ok, rok)
					}
				case op < 45:
					_, slot := a.find(asid, vpn)
					re, rok := r.peek(asid, vpn)
					if ok := slot >= 0; ok != rok || ok && !sameEntry(a.tags[slot], a.trs[slot], *re) {
						t.Fatalf("step %d: array %d peek(%d, %d) = %v, oracle %v", step, i, asid, vpn, ok, rok)
					}
				case op < 85:
					tr := randTr(i)
					base, set := a.set(vpn)
					before := slices.Clone(set)
					beforeTrs := slices.Clone(a.trs[base : base+len(set)])
					slot, ok := a.insert(asid, vpn, tr)
					rev, rok := r.insert(asid, vpn, tr)
					if slot < base || slot >= base+len(set) {
						t.Fatalf("step %d: array %d insert filled slot %d outside its set [%d, %d)", step, i, slot, base, base+len(set))
					}
					ev, evTr := before[slot-base], beforeTrs[slot-base]
					if ok != rok || ok && !sameEntry(ev, evTr, rev) {
						t.Fatalf("step %d: array %d insert evicted %v %+v %+v, oracle %v %+v", step, i, ok, ev, evTr, rok, rev)
					}
				case op < 98:
					if got, want := a.invalidate(asid, vpn), r.invalidate(asid, vpn); got != want {
						t.Fatalf("step %d: array %d invalidate(%d, %d) = %v, oracle %v", step, i, asid, vpn, got, want)
					}
				default:
					tl.FlushAll()
					for _, r := range refs {
						r.flush()
					}
					flushes++
				}

				want := 0
				for k, a := range arrays {
					for j := range a.tags {
						e, re := a.tags[j], refs[k].data[j]
						if (e.gen == a.gen) != re.valid || re.valid && !sameEntry(e, a.trs[j], re) {
							t.Fatalf("step %d: array %d slot %d diverged: %+v %+v vs oracle %+v", step, k, j, e, a.trs[j], re)
						}
						if re.valid {
							want++
						}
					}
				}
				if got := tl.ValidEntries(); got != want {
					t.Fatalf("step %d: ValidEntries = %d, oracle %d", step, got, want)
				}
				var got []visited
				tl.VisitEntries(func(asid int, va mem.VirtAddr, tr Translation) {
					got = append(got, visited{asid, va, tr})
				})
				ref := refVisit(refs)
				if len(got) != len(ref) {
					t.Fatalf("step %d: VisitEntries reported %d entries, oracle %d", step, len(got), len(ref))
				}
				for j := range got {
					if got[j] != ref[j] {
						t.Fatalf("step %d: VisitEntries entry %d = %+v, oracle %+v", step, j, got[j], ref[j])
					}
				}
			}
			if flushes == 0 {
				t.Fatal("random sequence never flushed")
			}
		})
	}
}

// BenchmarkTLBFlushAll measures a full flush of a default-geometry TLB
// (filled once beforehand), the per-switch cost a non-PCID tenant
// change pays on the host.
func BenchmarkTLBFlushAll(b *testing.B) {
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	cpu := sim.MachineOf(clock, &params).BootCPU()
	tl := New(cpu, &params, DefaultConfig())
	for i := 0; i < 4096; i++ {
		tl.Insert(1, mem.VirtAddr(i)<<12, Translation{Frame: mem.Frame(i), Size: Size4K})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.FlushAll()
	}
}
