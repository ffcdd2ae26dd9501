package vm

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/tlb"
)

// AccessError reports an invalid access (the simulator's SIGSEGV).
type AccessError struct {
	VA    mem.VirtAddr
	Write bool
	Cause string
}

// Error implements error.
func (e *AccessError) Error() string {
	kind := "read"
	if e.Write {
		kind = "write"
	}
	return fmt.Sprintf("vm: fault: invalid %s at %#x: %s", kind, uint64(e.VA), e.Cause)
}

// Touch simulates one user-mode memory access at va. It models the
// full hardware/OS path: TLB probe, page walk on miss, page fault on
// absent or protection-violating translations, and finally the data
// reference itself. This is the primitive behind every experiment that
// "accesses one byte of each page".
func (a *AddressSpace) Touch(va mem.VirtAddr, write bool) error {
	_, err := a.translate(va, write)
	a.kernel.tierPump(a.cpu)
	return err
}

// translate resolves va to a physical address, performing whatever
// faulting is needed, and charges the access costs.
func (a *AddressSpace) translate(va mem.VirtAddr, write bool) (mem.PhysAddr, error) {
	k := a.kernel
	a.run()
	cur := a.cpu
	a.cTouches.Inc()

	// 1. TLB.
	if tr, hit := a.curTLB().Lookup(a.asid, va); hit {
		if write && tr.Flags&pagetable.FlagCOW != 0 {
			// COW break goes through the fault path; drop the stale
			// entry first (local: the stale entry is this CPU's).
			a.curTLB().InvalidateVA(a.asid, va)
		} else if write && tr.Flags&pagetable.FlagWrite == 0 {
			return 0, &AccessError{VA: va, Write: write, Cause: "write to read-only mapping"}
		} else {
			pa := tr.Translate(va)
			a.chargeDataRef(pa, write)
			a.markAccess(pa, write)
			return pa, nil
		}
	}

	// 2. Page walk.
	if pa, flags, levels, ok := a.pt.Walk(cur, va); ok {
		if write && flags&pagetable.FlagCOW != 0 {
			pa2, err := a.cowBreak(va)
			if err != nil {
				return 0, err
			}
			a.chargeDataRef(pa2, write)
			a.markAccess(pa2, write)
			return pa2, nil
		}
		if write && flags&pagetable.FlagWrite == 0 {
			return 0, &AccessError{VA: va, Write: write, Cause: "write to read-only mapping"}
		}
		pageBytes := a.pt.LeafBytes(levels)
		size, _ := tlb.SizeForFrames(pageBytes / mem.FrameSize)
		base := pa - mem.PhysAddr(uint64(va)%pageBytes)
		a.curTLB().Insert(a.asid, va, tlb.Translation{Frame: base.Frame(), Size: size, Flags: flags})
		a.chargeDataRef(pa, write)
		a.markAccess(pa, write)
		return pa, nil
	}

	// 3. Page fault.
	cur.Advance(k.Params.FaultOverhead)
	v, ok := a.findVMA(va)
	if !ok {
		return 0, &AccessError{VA: va, Write: write, Cause: "no VMA"}
	}
	if write && v.Prot&pagetable.FlagWrite == 0 {
		return 0, &AccessError{VA: va, Write: write, Cause: "write to read-only VMA"}
	}
	if !write && v.Prot&pagetable.FlagRead == 0 {
		return 0, &AccessError{VA: va, Write: write, Cause: "read from unreadable VMA"}
	}
	page := va.PageBase()
	c := a.pt.Cursor()
	if err := a.installPage(&c, v, page, true); err != nil {
		return 0, err
	}
	pa, flags, _ := c.Lookup(page)
	if write && flags&pagetable.FlagCOW != 0 {
		var err error
		pa, err = a.cowBreak(va)
		if err != nil {
			return 0, err
		}
		a.chargeDataRef(pa, write)
		a.markAccess(pa, write)
		return pa, nil
	}
	a.curTLB().Insert(a.asid, page, tlb.Translation{Frame: pa.Frame(), Size: tlb.Size4K, Flags: flags})
	pa += mem.PhysAddr(va.PageOffset())
	a.chargeDataRef(pa, write)
	a.markAccess(pa, write)
	return pa, nil
}

// chargeDataRef charges the data-plane reference cost, including NVM
// penalties.
func (a *AddressSpace) chargeDataRef(pa mem.PhysAddr, write bool) {
	k := a.kernel
	cost := k.Params.MemRef
	if k.Memory.Kind(pa.Frame()) == mem.NVM {
		if write {
			cost += k.Params.NVMWritePenalty
		} else {
			cost += k.Params.NVMReadPenalty
		}
	}
	a.cpu.Advance(cost)
}

// markAccess sets the referenced (and dirty) bits, feeding the reclaim
// scanner's second-chance logic. The cost is charged as metadata work
// only when the bits actually change, as hardware sets them for free
// and the kernel reads them lazily.
func (a *AddressSpace) markAccess(pa mem.PhysAddr, write bool) {
	if pi, ok := a.kernel.page(pa.Frame()); ok {
		pi.Flags |= PGReferenced
		if write {
			pi.Flags |= PGDirty
		}
	}
	if t := a.kernel.tier; t != nil {
		t.Record(pa.Frame(), write)
	}
}

// installPage creates the PTE for one page of a VMA through c. fault
// says whether this is the demand-fault path (counted as a minor/major
// fault) or the populate path.
func (a *AddressSpace) installPage(c *pagetable.Cursor, v *VMA, va mem.VirtAddr, fault bool) error {
	k := a.kernel
	// Swapped-out anonymous page? Major fault.
	if slot, swapped := a.swapped[va]; swapped {
		return a.swapIn(v, va, slot, fault)
	}
	var frame mem.Frame
	var flags PageFlags
	switch {
	case v.UserFault != nil:
		// userfaultfd-style resolution: the kernel suspends the
		// faulting thread, round-trips to the user handler, and copies
		// the supplied contents into a fresh frame (UFFDIO_COPY).
		f, err := k.allocAnonFrame(a.cpu, a.arena)
		if err != nil {
			return err
		}
		page := uint64(va-v.Start) / mem.FrameSize
		data, err := v.UserFault(page, fault)
		if err != nil {
			return &AccessError{VA: va, Write: false, Cause: fmt.Sprintf("user fault handler: %v", err)}
		}
		if len(data) > mem.FrameSize {
			data = data[:mem.FrameSize]
		}
		// Two extra user/kernel crossings: wake the handler, then the
		// handler's resolution call.
		a.cpu.Advance(2 * k.Params.SyscallOverhead)
		if len(data) > 0 {
			k.Memory.WriteAt(f.Addr(), data)
			a.cpu.Advance(k.Params.ReadPerPage())
		}
		frame = f
		flags = PGAnon | PGSwapBacked
		k.stats.Counter("user_faults").Inc()
	case v.Anon:
		f, err := k.allocAnonFrame(a.cpu, a.arena)
		if err != nil {
			return err
		}
		frame = f
		flags = PGAnon | PGSwapBacked
	default:
		filePage := v.FileOff + uint64(va-v.Start)/mem.FrameSize
		f, _, err := v.File.PageFrame(filePage, true)
		if err != nil {
			return err
		}
		frame = f
		flags = PGFile
	}
	prot := v.Prot
	if v.File != nil && v.Private {
		// Private file mapping: writes must COW.
		prot = (prot &^ pagetable.FlagWrite) | pagetable.FlagCOW
	}
	if err := c.Map(a.cpu, va, frame, prot); err != nil {
		return err
	}
	pi := k.trackPage(a.cpu, frame, flags)
	if v.Locked {
		pi.Flags |= PGMlocked
	}
	k.addRmap(a.cpu, pi, a, va)
	if pi.list == nil {
		k.lruInsert(a.cpu, pi)
	}
	if fault {
		k.cMinorFaults.Inc()
	}
	return nil
}

// cowBreak resolves a write to a COW page: the faulting address space
// gets a private copy (or upgrades in place if it is the last sharer).
// It accepts any address within the page and returns the physical
// address corresponding to va in the (possibly new) frame.
func (a *AddressSpace) cowBreak(va mem.VirtAddr) (mem.PhysAddr, error) {
	off := mem.PhysAddr(va.PageOffset())
	va = va.PageBase()
	k := a.kernel
	cur := a.cpu
	cur.Advance(k.Params.FaultOverhead)
	k.stats.Counter("cow_breaks").Inc()
	pa, flags, ok := a.pt.Lookup(va)
	if !ok {
		return 0, fmt.Errorf("vm: cow break of unmapped va %#x", uint64(va))
	}
	frame := pa.Frame()
	pi, tracked := k.page(frame)
	writable := (flags &^ pagetable.FlagCOW) | pagetable.FlagWrite

	if tracked && pi.MapCount > 1 {
		// Shared: copy into a fresh anonymous frame.
		nf, err := k.allocAnonFrame(cur, a.arena)
		if err != nil {
			return 0, err
		}
		k.Memory.CopyFramesOn(cur, nf, frame, 1)
		if _, _, err := a.pt.Unmap(cur, va); err != nil {
			return 0, err
		}
		if err := k.delRmap(cur, pi, a, va); err != nil {
			return 0, err
		}
		if err := a.pt.Map(cur, va, nf, writable); err != nil {
			return 0, err
		}
		npi := k.trackPage(cur, nf, PGAnon|PGSwapBacked|PGDirty)
		k.addRmap(cur, npi, a, va)
		k.lruInsert(cur, npi)
		a.shootdownVA(cur, va)
		a.curTLB().Insert(a.asid, va, tlb.Translation{Frame: nf, Size: tlb.Size4K, Flags: writable})
		return nf.Addr() + off, nil
	}

	// Last sharer of an anonymous page: upgrade in place. For private
	// file pages the first write always copies (the file must not see
	// the store).
	if tracked && pi.Flags&PGFile != 0 {
		nf, err := k.allocAnonFrame(cur, a.arena)
		if err != nil {
			return 0, err
		}
		k.Memory.CopyFramesOn(cur, nf, frame, 1)
		if _, _, err := a.pt.Unmap(cur, va); err != nil {
			return 0, err
		}
		if err := k.delRmap(cur, pi, a, va); err != nil {
			return 0, err
		}
		if !pi.Mapped() {
			k.forgetPage(cur, pi)
		}
		if err := a.pt.Map(cur, va, nf, writable); err != nil {
			return 0, err
		}
		npi := k.trackPage(cur, nf, PGAnon|PGSwapBacked|PGDirty)
		k.addRmap(cur, npi, a, va)
		k.lruInsert(cur, npi)
		a.shootdownVA(cur, va)
		a.curTLB().Insert(a.asid, va, tlb.Translation{Frame: nf, Size: tlb.Size4K, Flags: writable})
		return nf.Addr() + off, nil
	}

	if err := a.pt.Protect(cur, va, writable); err != nil {
		return 0, err
	}
	a.shootdownVA(cur, va)
	a.curTLB().Insert(a.asid, va, tlb.Translation{Frame: frame, Size: tlb.Size4K, Flags: writable})
	if tracked {
		pi.Flags |= PGDirty
	}
	return pa + off, nil
}

// swapIn services a major fault.
func (a *AddressSpace) swapIn(v *VMA, va mem.VirtAddr, slot int, fault bool) error {
	k := a.kernel
	f, err := k.allocAnonFrame(a.cpu, a.arena)
	if err != nil {
		return err
	}
	data, err := k.swap.read(slot)
	if err != nil {
		return err
	}
	k.Memory.WriteAt(f.Addr(), data)
	a.cpu.Advance(k.Params.SwapPageIO)
	k.swap.free(slot)
	delete(a.swapped, va)
	if err := a.pt.Map(a.cpu, va, f, v.Prot); err != nil {
		return err
	}
	pi := k.trackPage(a.cpu, f, PGAnon|PGSwapBacked)
	k.addRmap(a.cpu, pi, a, va)
	k.lruInsert(a.cpu, pi)
	if fault {
		k.stats.Counter("major_faults").Inc()
	}
	k.stats.Counter("swapins").Inc()
	return nil
}
