package vm

import (
	"fmt"
	"slices"

	"repro/internal/buddy"
	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/tlb"
)

// CheckInvariants audits the kernel's global memory-management state:
// the pagetable ↔ PageInfo/rmap bijection, buddy free-list
// disjointness, recycled-object scrubbing, per-CPU TLB freshness, swap
// consistency, and LRU list accounting. It is registered with the
// machine at kernel construction (Machine.CheckInvariants runs it) and
// charges no simulated time, so tests may call it between any two
// operations without perturbing timing results.
func (k *Kernel) CheckInvariants() error {
	// refs[frame] counts mappings observed by walking every live page
	// table; it must agree with each PageInfo's MapCount and rmap.
	refs := make(map[mem.Frame]int)

	// Forward direction: every present leaf PTE points at a frame whose
	// metadata exists and whose rmap records this exact (as, va).
	err := k.eachSpace(func(asid int, as *AddressSpace) error {
		if as.asid != asid {
			return fmt.Errorf("vm: address space registered under ASID %d but carries %d", asid, as.asid)
		}
		if err := as.pt.CheckInvariants(); err != nil {
			return fmt.Errorf("vm: asid %d: %w", asid, err)
		}
		if as.shoot.active {
			return fmt.Errorf("vm: asid %d has an open shootdown batch", asid)
		}
		var leafErr error
		as.pt.VisitLeaves(func(va mem.VirtAddr, frame mem.Frame, pages uint64, flags pagetable.Flags) {
			if leafErr != nil {
				return
			}
			refs[frame]++
			pi, ok := k.page(frame)
			if !ok {
				leafErr = fmt.Errorf("vm: asid %d maps va %#x to untracked frame %d", asid, uint64(va), frame)
				return
			}
			if !rmapContains(pi, as, va) {
				leafErr = fmt.Errorf("vm: asid %d va %#x -> frame %d, but the frame's rmap has no such entry", asid, uint64(va), frame)
			}
		})
		return leafErr
	})
	if err != nil {
		return err
	}

	// Reverse direction, per metadata domain: every rmap entry points
	// at a live address space whose page table maps that va back to
	// this frame, and the per-frame counts agree with the forward walk.
	// A frame filed in the wrong domain would fail here too: domainOf
	// routes by frame number, so the walk would not find it.
	err = k.domains(func(label string, d *metaDomain, pool *buddy.Allocator) error {
		var err error
		n := 0
		d.pages.Visit(func(frame mem.Frame, pi *PageInfo) bool {
			n++
			err = k.checkTracked(label, d, frame, pi, refs[frame])
			return err == nil
		})
		if err == nil && n != d.live {
			err = fmt.Errorf("vm: %s domain holds %d pages, count says %d", label, n, d.live)
		}
		return err
	})
	if err != nil {
		return err
	}

	// Buddy pools: internal accounting must tile the managed range,
	// and no free block may cover a frame that still has live metadata
	// (a mapped or tracked frame on the free list is a use-after-free).
	// Carved arena ranges are allocated runs from the global pool's
	// point of view; the slow-tier pool shares the global metadata
	// domain. The walk above proved every tracked frame sits in the
	// domain its frame number routes to, so the tracked set is the
	// union of the domains' pages.
	type auditedPool struct {
		pool       *buddy.Allocator
		name, list string
	}
	var pools []auditedPool
	_ = k.domains(func(label string, d *metaDomain, pool *buddy.Allocator) error {
		pools = append(pools, auditedPool{pool, label + " pool", label + " buddy"})
		return nil
	})
	if k.slowPool != nil {
		pools = append(pools, auditedPool{k.slowPool, "slow pool", "slow-pool"})
	}
	tracked := k.trackedFrames()
	for _, p := range pools {
		if err := p.pool.CheckInvariants(); err != nil {
			return fmt.Errorf("vm: %s: %w", p.name, err)
		}
		if err := checkFreeUntracked(p.pool, p.list, tracked); err != nil {
			return err
		}
	}

	// Per-CPU TLBs: every valid entry must belong to a live address
	// space (ASIDs are never reused, so a dead ASID proves a missed
	// shootdown) and agree exactly with that space's page table.
	for cpuID, t := range k.tlbs {
		if err := k.checkTLB(t, cpuID); err != nil {
			return err
		}
	}

	// Swap: a swapped-out va must not simultaneously be present in the
	// page table, and its slot must hold data.
	err = k.eachSpace(func(asid int, as *AddressSpace) error {
		for va, slot := range as.swapped {
			if _, _, ok := as.pt.Lookup(va); ok {
				return fmt.Errorf("vm: asid %d va %#x is both swapped (slot %d) and mapped", asid, uint64(va), slot)
			}
			if !k.swap.has(slot) {
				return fmt.Errorf("vm: asid %d va %#x references empty swap slot %d", asid, uint64(va), slot)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// LRU lists: membership flags and counts must agree, and every
	// listed page must still be tracked. Each domain has its own pair.
	err = k.domains(func(label string, d *metaDomain, pool *buddy.Allocator) error {
		if err := k.checkLRU(d.active, label+" active", true); err != nil {
			return err
		}
		return k.checkLRU(d.inactive, label+" inactive", false)
	})
	if err != nil {
		return err
	}

	// Recycled pools: a spare object with surviving state would leak it
	// into its next life (the PR-2 use-after-recycle class of bug).
	if err := k.SpareScrubbed(); err != nil {
		return err
	}
	return k.Memory.SpareScrubbed()
}

// checkTracked audits one tracked frame of domain d: it must be filed
// in the domain its number routes to, and every rmap entry must point
// at a live address space whose page table maps that va back to the
// frame, as many times as the forward walk counted (refs).
func (k *Kernel) checkTracked(label string, d *metaDomain, frame mem.Frame, pi *PageInfo, refs int) error {
	if k.domainOf(frame) != d {
		return fmt.Errorf("vm: frame %d tracked in the wrong domain (%s)", frame, label)
	}
	if pi.Frame != frame {
		return fmt.Errorf("vm: PageInfo for frame %d carries frame %d", frame, pi.Frame)
	}
	if pi.MapCount != len(pi.rmap) {
		return fmt.Errorf("vm: frame %d MapCount %d but rmap holds %d entries", frame, pi.MapCount, len(pi.rmap))
	}
	if refs != len(pi.rmap) {
		return fmt.Errorf("vm: frame %d has %d rmap entries but %d page-table mappings", frame, len(pi.rmap), refs)
	}
	for _, e := range pi.rmap {
		live, ok := k.space(e.as.asid)
		if !ok || live != e.as {
			return fmt.Errorf("vm: frame %d rmap references dead address space (asid %d)", frame, e.as.asid)
		}
		pa, _, ok := e.as.pt.Lookup(e.va)
		if !ok {
			return fmt.Errorf("vm: frame %d rmap says asid %d maps va %#x, but the page table does not", frame, e.as.asid, uint64(e.va))
		}
		if pa.Frame() != frame {
			return fmt.Errorf("vm: frame %d rmap entry (asid %d, va %#x) resolves to frame %d", frame, e.as.asid, uint64(e.va), pa.Frame())
		}
	}
	return nil
}

// visitTracked calls fn for every tracked page of every domain in
// ascending frame order, stopping early when fn returns false. Each
// domain's table visits its own frames in order, and an arena's frames
// all lie between the global domain's frames below and above its run,
// so the arenas (sorted by base) are spliced into the global walk.
func (k *Kernel) visitTracked(fn func(f mem.Frame, pi *PageInfo) bool) {
	arenas := k.arenas
	ok := true
	flush := func(below mem.Frame) {
		for ok && len(arenas) > 0 && arenas[0].base < below {
			arenas[0].meta.pages.Visit(func(f mem.Frame, pi *PageInfo) bool {
				ok = fn(f, pi)
				return ok
			})
			arenas = arenas[1:]
		}
	}
	k.meta.pages.Visit(func(f mem.Frame, pi *PageInfo) bool {
		flush(f)
		ok = ok && fn(f, pi)
		return ok
	})
	flush(^mem.Frame(0))
}

// trackedFrames returns every frame with PageInfo metadata, in all
// domains, in ascending order.
func (k *Kernel) trackedFrames() []mem.Frame {
	frames := make([]mem.Frame, 0, k.TrackedPages())
	k.visitTracked(func(f mem.Frame, _ *PageInfo) bool {
		frames = append(frames, f)
		return true
	})
	return frames
}

// checkFreeUntracked reports the first frame, in free-list order, that
// lies on one of pool's free blocks yet appears in tracked (sorted).
// Each free block costs one binary search, so the check is
// O(F log T) in free blocks F and tracked frames T, not proportional
// to the free frames.
func checkFreeUntracked(pool *buddy.Allocator, label string, tracked []mem.Frame) error {
	var err error
	pool.VisitFree(func(start mem.Frame, count uint64) {
		if err != nil {
			return
		}
		if i, _ := slices.BinarySearch(tracked, start); i < len(tracked) && tracked[i] < start+mem.Frame(count) {
			err = fmt.Errorf("vm: frame %d is on the %s free list but still tracked", tracked[i], label)
		}
	})
	return err
}

func rmapContains(pi *PageInfo, as *AddressSpace, va mem.VirtAddr) bool {
	for _, e := range pi.rmap {
		if e.as == as && e.va == va {
			return true
		}
	}
	return false
}

// checkTLB audits one CPU's TLB against the page tables of all live
// address spaces.
func (k *Kernel) checkTLB(t *tlb.TLB, cpuID int) error {
	var tlbErr error
	t.VisitEntries(func(asid int, va mem.VirtAddr, tr tlb.Translation) {
		if tlbErr != nil {
			return
		}
		as, ok := k.space(asid)
		if !ok {
			tlbErr = fmt.Errorf("vm: CPU %d TLB holds entry for dead ASID %d (va %#x)", cpuID, asid, uint64(va))
			return
		}
		pa, flags, ok := as.pt.Lookup(va)
		if !ok {
			tlbErr = fmt.Errorf("vm: CPU %d TLB caches asid %d va %#x, which is no longer mapped", cpuID, asid, uint64(va))
			return
		}
		if as.pt.PageSize(va) != tr.Size.Bytes() {
			tlbErr = fmt.Errorf("vm: CPU %d TLB caches asid %d va %#x at size %s, page table maps %d bytes",
				cpuID, asid, uint64(va), tr.Size, as.pt.PageSize(va))
			return
		}
		if pa.Frame() != tr.Frame {
			tlbErr = fmt.Errorf("vm: CPU %d TLB maps asid %d va %#x to frame %d, page table says %d",
				cpuID, asid, uint64(va), tr.Frame, pa.Frame())
			return
		}
		if flags != tr.Flags {
			tlbErr = fmt.Errorf("vm: CPU %d TLB caches asid %d va %#x with flags %s, page table says %s",
				cpuID, asid, uint64(va), tr.Flags, flags)
		}
	})
	return tlbErr
}

// checkLRU validates one LRU list: linkage, flags, count, and that
// every member is still tracked.
func (k *Kernel) checkLRU(l *pageList, name string, active bool) error {
	n := 0
	for p := l.head; p != nil; p = p.next {
		n++
		if n > l.count {
			return fmt.Errorf("vm: %s list longer than its count %d (cycle?)", name, l.count)
		}
		if p.list != l {
			return fmt.Errorf("vm: frame %d on %s list but list pointer disagrees", p.Frame, name)
		}
		if p.Flags&PGLRU == 0 {
			return fmt.Errorf("vm: frame %d on %s list without PGLRU", p.Frame, name)
		}
		if active != (p.Flags&PGActive != 0) {
			return fmt.Errorf("vm: frame %d on %s list with PGActive=%v", p.Frame, name, p.Flags&PGActive != 0)
		}
		if tracked, ok := k.page(p.Frame); !ok || tracked != p {
			return fmt.Errorf("vm: frame %d on %s list but not tracked", p.Frame, name)
		}
	}
	if n != l.count {
		return fmt.Errorf("vm: %s list holds %d pages, count says %d", name, n, l.count)
	}
	return nil
}

// SpareScrubbed verifies that every recycled PageInfo in every domain
// is fully zeroed, including the retained rmap backing array past its
// (zero) length: stale entries there hold dangling *AddressSpace
// pointers. Each domain's page-table node pool is checked once, not
// once per address space drawing from it.
func (k *Kernel) SpareScrubbed() error {
	return k.domains(func(label string, d *metaDomain, pool *buddy.Allocator) error {
		if err := d.ptNodes.SpareScrubbed(); err != nil {
			return fmt.Errorf("vm: %s: %w", label, err)
		}
		for i, p := range d.sparePages {
			if p.Frame != 0 || p.Flags != 0 || p.MapCount != 0 || len(p.rmap) != 0 ||
				p.prev != nil || p.next != nil || p.list != nil {
				return fmt.Errorf("vm: %s spare PageInfo %d not scrubbed (frame=%d flags=%#x mapcount=%d rmap=%d)",
					label, i, p.Frame, p.Flags, p.MapCount, len(p.rmap))
			}
			for j, e := range p.rmap[:cap(p.rmap)] {
				if e.as != nil || e.va != 0 {
					return fmt.Errorf("vm: %s spare PageInfo %d retains rmap entry %d past its length", label, i, j)
				}
			}
		}
		return nil
	})
}

// TestOnlyCorruptRmap deliberately corrupts the rmap of one tracked
// page — the lowest-numbered frame with a non-empty rmap, so the
// choice is deterministic — by sliding its first entry one page
// forward. It exists solely so tests can prove the invariant checker
// and the stress harness's shrinker catch real metadata corruption; it
// must never be called outside tests. It reports whether a candidate
// page existed.
func (k *Kernel) TestOnlyCorruptRmap() bool {
	var victim *PageInfo
	k.visitTracked(func(_ mem.Frame, pi *PageInfo) bool {
		if len(pi.rmap) != 0 {
			victim = pi
		}
		return victim == nil
	})
	if victim == nil {
		return false
	}
	victim.rmap[0].va += mem.FrameSize
	return true
}
