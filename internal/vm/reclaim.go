package vm

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
)

// SwapDevice stores evicted anonymous pages. Slot contents survive in
// host memory (the device models a disk or swap partition, whose
// latency is charged per page moved). Freed slot buffers are kept for
// the next swap-out, up to maxSpareSwap of them, so page-out churn
// does not allocate a fresh 4 KiB buffer per eviction.
type SwapDevice struct {
	slots    map[int][]byte
	spare    [][]byte // buffers of freed slots; contents are stale
	nextSlot int
	limit    uint64 // 0 = unlimited
}

// maxSpareSwap bounds the freed-buffer list (4 MiB of host memory).
const maxSpareSwap = 1024

func newSwapDevice(limit uint64) *SwapDevice {
	return &SwapDevice{slots: make(map[int][]byte), limit: limit}
}

// used returns the number of occupied slots.
func (s *SwapDevice) used() int { return len(s.slots) }

// alloc takes the next slot and returns its FrameSize buffer, for the
// caller to fill completely: a recycled buffer still holds the page
// it last stored.
func (s *SwapDevice) alloc() (int, []byte, error) {
	if s.limit != 0 && uint64(len(s.slots)) >= s.limit {
		return 0, nil, fmt.Errorf("vm: swap device full (%d slots)", s.limit)
	}
	var buf []byte
	if n := len(s.spare); n > 0 {
		buf = s.spare[n-1]
		s.spare[n-1] = nil
		s.spare = s.spare[:n-1]
	} else {
		buf = make([]byte, mem.FrameSize)
	}
	slot := s.nextSlot
	s.nextSlot++
	s.slots[slot] = buf
	return slot, buf, nil
}

func (s *SwapDevice) read(slot int) ([]byte, error) {
	data, ok := s.slots[slot]
	if !ok {
		return nil, fmt.Errorf("vm: swap slot %d empty", slot)
	}
	return data, nil
}

// free empties slot and keeps its buffer for a later alloc.
func (s *SwapDevice) free(slot int) {
	if buf, ok := s.slots[slot]; ok {
		delete(s.slots, slot)
		if len(s.spare) < maxSpareSwap {
			s.spare = append(s.spare, buf)
		}
	}
}

func (s *SwapDevice) has(slot int) bool {
	_, ok := s.slots[slot]
	return ok
}

// ReclaimPages runs the two-list scanner on cur until it has freed
// want frames (or candidates run out), returning the number freed. The
// per-page scanning work — examine flags, clear referenced bits,
// unmap, write to swap — is exactly the linear reclamation cost
// file-only memory eliminates (§3.1 "The operating system does not
// scan for idle pages to reclaim"). Only the global domain's lists are
// scanned: per-CPU arenas have no reclaim (their exhaustion is a hard
// error), because eviction unmaps arbitrary address spaces — an
// inherently cross-CPU activity.
func (k *Kernel) ReclaimPages(cur *sim.CPU, want uint64) (uint64, error) {
	var freed uint64
	// Refill the inactive list from the active list when it runs dry,
	// demoting pages whose referenced bit has been cleared.
	budget := (k.meta.active.len() + k.meta.inactive.len()) * 3
	for freed < want && budget > 0 {
		budget--
		k.cReclaimScans.Inc()
		k.chargeMeta(cur, 1)
		p := k.meta.inactive.popFront()
		if p == nil {
			if k.meta.active.len() == 0 {
				break
			}
			// Demote one active page per refill step. PGActive is
			// cleared only on actual demotion: a referenced page
			// rotates on the active list and must keep the flag.
			ap := k.meta.active.popFront()
			if ap.Flags&PGReferenced != 0 {
				ap.Flags &^= PGReferenced
				k.meta.active.pushBack(ap)
			} else {
				ap.Flags &^= PGActive
				k.meta.inactive.pushBack(ap)
			}
			continue
		}
		if p.Flags&(PGMlocked|PGPinned) != 0 {
			// Unevictable: park on the active list.
			k.lruActivate(cur, p)
			continue
		}
		if p.Flags&PGReferenced != 0 {
			// Second chance: promote.
			p.Flags &^= PGReferenced
			k.lruActivate(cur, p)
			continue
		}
		n, err := k.evictPage(cur, p)
		if err != nil {
			return freed, err
		}
		freed += n
	}
	k.stats.Counter("reclaimed_pages").Add(freed)
	return freed, nil
}

// evictPage unmaps a page everywhere and frees its frame, swapping out
// anonymous contents first. All work is charged to cur, the reclaiming
// CPU.
func (k *Kernel) evictPage(cur *sim.CPU, p *PageInfo) (uint64, error) {
	// Unmap from every address space via the reverse map. The snapshot
	// lives in a kernel scratch buffer (delRmap below mutates p.rmap,
	// and evictPage never nests).
	rmap := append(k.rmapScratch[:0], p.rmap...)
	k.rmapScratch = rmap[:0]
	frame := p.Frame
	anon := p.Flags&PGAnon != 0
	if anon && len(rmap) > 1 {
		// COW-shared anonymous page: swap-slot sharing is not worth
		// modelling; keep it resident.
		k.lruActivate(cur, p)
		return 0, nil
	}

	var slot int
	if anon {
		var buf []byte
		var err error
		slot, buf, err = k.swap.alloc()
		if err != nil {
			// Swap full: keep the page (rotate to active to avoid
			// rescanning immediately).
			k.lruActivate(cur, p)
			return 0, nil
		}
		k.Memory.ReadAt(frame.Addr(), buf)
		cur.Advance(k.Params.SwapPageIO)
		k.stats.Counter("swapouts").Inc()
	}

	for _, e := range rmap {
		if _, _, err := e.as.pt.Unmap(cur, e.va); err != nil {
			return 0, err
		}
		// The reclaiming CPU shoots the translation down on every CPU
		// the victim address space has run on.
		e.as.shootdownVA(cur, e.va)
		if err := k.delRmap(cur, p, e.as, e.va); err != nil {
			return 0, err
		}
		if anon {
			e.as.swapped[e.va] = slot
		}
	}
	k.forgetPage(cur, p)
	if anon {
		if err := k.freeAnonFrame(frame); err != nil {
			return 0, err
		}
		return 1, nil
	}
	// File page: storage stays in the file; only the mapping is torn
	// down, freeing no pool frames but reducing resident pressure.
	return 0, nil
}
