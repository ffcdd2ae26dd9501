package core

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/rangetable"
	"repro/internal/tlb"
)

// CheckInvariants audits the file-only-memory system: file-system
// extent/frame consistency, page-table-pool accounting, the PBM
// identity of every installed translation (range-table entries, linked
// subtrees, master tables), the mapping ↔ translation bijection per
// live process, and the freshness of every per-CPU TLB and range-TLB
// entry. It is registered with the machine at system construction and
// charges no simulated time.
func (s *System) CheckInvariants() error {
	if err := s.fs.CheckInvariants(); err != nil {
		return err
	}
	if err := s.ptPool.bud.CheckInvariants(); err != nil {
		return err
	}
	// One pool serves the masters and every process: check it once.
	if err := s.ptPool.nodes.SpareScrubbed(); err != nil {
		return fmt.Errorf("core: page-table pool: %w", err)
	}

	// Master tables: every pre-created leaf must be a PBM identity
	// mapping with its table's protection class.
	for prot, m := range s.masters {
		if err := m.table.CheckInvariants(); err != nil {
			return fmt.Errorf("core: master table %s: %w", prot, err)
		}
		if err := checkIdentityLeaves(m.table, fmt.Sprintf("master %s", prot), &prot); err != nil {
			return err
		}
	}

	// Per-process translation state.
	for pid, p := range s.live {
		if p.pid != pid {
			return fmt.Errorf("core: process registered under PID %d but carries %d", pid, p.pid)
		}
		if p.exited {
			return fmt.Errorf("core: exited process %d still registered", pid)
		}
		switch p.mode {
		case Ranges:
			if err := p.checkRanges(); err != nil {
				return err
			}
		case SharedPT:
			if err := p.checkSharedPT(); err != nil {
				return err
			}
		}
	}

	// Per-CPU caches: every cached translation must belong to a live
	// process of the matching mode and agree with its tables. PIDs are
	// never reused, so a dead PID proves a missed shootdown.
	for cpuID, r := range s.rtlbs {
		var rtlbErr error
		r.VisitEntries(func(pid int, e rangetable.Entry) {
			if rtlbErr != nil {
				return
			}
			p, ok := s.live[pid]
			if !ok || p.mode != Ranges {
				rtlbErr = fmt.Errorf("core: CPU %d range TLB holds entry at %#x for dead or non-range PID %d",
					cpuID, uint64(e.VBase), pid)
				return
			}
			got, ok := p.ranges.LookupNoCharge(e.VBase)
			if !ok || got != e {
				rtlbErr = fmt.Errorf("core: CPU %d range TLB entry (pid %d, %#x,+%d pages) disagrees with the range table",
					cpuID, pid, uint64(e.VBase), e.Pages)
			}
		})
		if rtlbErr != nil {
			return rtlbErr
		}
	}
	for cpuID, t := range s.tlbs {
		var tlbErr error
		t.VisitEntries(func(pid int, va mem.VirtAddr, tr tlb.Translation) {
			if tlbErr != nil {
				return
			}
			p, ok := s.live[pid]
			if !ok || p.mode != SharedPT {
				tlbErr = fmt.Errorf("core: CPU %d TLB holds entry at %#x for dead or non-shared-pt PID %d",
					cpuID, uint64(va), pid)
				return
			}
			pa, flags, ok := p.pt.Lookup(va)
			if !ok {
				tlbErr = fmt.Errorf("core: CPU %d TLB caches pid %d va %#x, which is no longer mapped", cpuID, pid, uint64(va))
				return
			}
			if pa.Frame() != tr.Frame || flags != tr.Flags {
				tlbErr = fmt.Errorf("core: CPU %d TLB entry (pid %d, va %#x) disagrees with the page table", cpuID, pid, uint64(va))
			}
		})
		if tlbErr != nil {
			return tlbErr
		}
	}
	return nil
}

// checkRanges validates a Ranges-mode process: the range table must be
// internally consistent, every entry must be a PBM identity
// translation, and entries must correspond one-to-one with the
// segments of the process's mappings.
func (p *Process) checkRanges() error {
	if err := p.ranges.CheckInvariants(); err != nil {
		return fmt.Errorf("core: pid %d: %w", p.pid, err)
	}
	entries := make(map[mem.VirtAddr]rangetable.Entry)
	for _, e := range p.ranges.Entries() {
		if e.VBase != VAForPhys(e.PBase.Addr()) {
			return fmt.Errorf("core: pid %d range entry at %#x is not a PBM identity mapping of frame %d",
				p.pid, uint64(e.VBase), e.PBase)
		}
		entries[e.VBase] = e
	}
	segs := 0
	for _, m := range p.mappings {
		for _, seg := range m.segments {
			segs++
			e, ok := entries[seg.VA]
			if !ok {
				return fmt.Errorf("core: pid %d segment at %#x has no range-table entry", p.pid, uint64(seg.VA))
			}
			if e.PBase != seg.Frame || e.Pages != seg.Pages || e.Flags != m.prot {
				return fmt.Errorf("core: pid %d segment at %#x disagrees with its range entry", p.pid, uint64(seg.VA))
			}
		}
	}
	if segs != len(entries) {
		return fmt.Errorf("core: pid %d has %d mapped segments but %d range entries", p.pid, segs, len(entries))
	}
	return nil
}

// checkSharedPT validates a SharedPT-mode process: the page table must
// be internally consistent and every reachable leaf — including leaves
// inside subtrees linked from the masters — must be a PBM identity
// mapping.
func (p *Process) checkSharedPT() error {
	if err := p.pt.CheckInvariants(); err != nil {
		return fmt.Errorf("core: pid %d: %w", p.pid, err)
	}
	return checkIdentityLeaves(p.pt, fmt.Sprintf("pid %d", p.pid), nil)
}

// checkIdentityLeaves asserts that every present leaf of t maps its
// virtual address to the identical physical address under the PBM
// offset. If prot is non-nil, leaf flags must equal *prot.
func checkIdentityLeaves(t *pagetable.Table, who string, prot *pagetable.Flags) error {
	var leafErr error
	t.VisitLeaves(func(va mem.VirtAddr, frame mem.Frame, pages uint64, flags pagetable.Flags) {
		if leafErr != nil {
			return
		}
		if va != VAForPhys(frame.Addr()) {
			leafErr = fmt.Errorf("core: %s leaf at %#x maps frame %d, breaking the PBM identity", who, uint64(va), frame)
			return
		}
		if prot != nil && flags != *prot {
			leafErr = fmt.Errorf("core: %s leaf at %#x has flags %s, want %s", who, uint64(va), flags, *prot)
		}
	})
	return leafErr
}
