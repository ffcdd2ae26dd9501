package vm

import (
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/sim"
)

// sortedVAs returns a swap map's keys in ascending address order.
func sortedVAs(m map[mem.VirtAddr]int) []mem.VirtAddr {
	vas := make([]mem.VirtAddr, 0, len(m))
	for va := range m {
		vas = append(vas, va)
	}
	sort.Slice(vas, func(i, j int) bool { return vas[i] < vas[j] })
	return vas
}

// Fork duplicates the address space with copy-on-write semantics: every
// VMA is copied, every present writable private page is downgraded to
// COW in both parent and child, and the child's page table is built
// entry by entry — the linear fork cost of the baseline design. The
// child is homed round-robin across the machine's CPUs; since that
// touches the shared round-robin counter, Fork is not valid inside a
// host-parallel free-running window (use ForkOn there).
func (a *AddressSpace) Fork() (*AddressSpace, error) {
	k := a.kernel
	a.run()
	child, err := k.NewAddressSpace()
	if err != nil {
		return nil, err
	}
	a.run()
	return a.forkInto(child)
}

// ForkOn is Fork with the child homed on an explicit CPU. With the
// child on the parent's own CPU the whole fork is CPU-local (the
// fork/exec churn path of the multi-tenant workload): page-table
// frames come from that CPU's arena and no shared state is touched,
// so it is valid during a host-parallel phase. The parent's COW
// downgrades batch their shootdowns into one IPI round.
func (a *AddressSpace) ForkOn(cpu *sim.CPU) (*AddressSpace, error) {
	k := a.kernel
	a.run()
	child, err := k.NewAddressSpaceOn(cpu)
	if err != nil {
		return nil, err
	}
	a.run()
	return a.forkInto(child)
}

// forkInto performs the copy half of fork on the parent's CPU.
func (a *AddressSpace) forkInto(child *AddressSpace) (*AddressSpace, error) {
	k := a.kernel
	cur := a.cpu
	cur.Advance(k.Params.SyscallOverhead)
	a.beginShoot()
	defer a.flushShoot(cur)
	pc, cc := a.pt.Cursor(), child.pt.Cursor()
	for _, v := range a.vmas {
		if v.Huge {
			// Real kernels split or COW-share huge pages on fork; this
			// simulator keeps huge mappings exclusive.
			return nil, fmt.Errorf("vm: fork with huge mappings not supported")
		}
		cv := *v
		if cv.File != nil {
			cv.File.Ref()
		}
		child.vmas = append(child.vmas, &cv)
		cur.Advance(k.Params.VMAOp)

		sharedWrites := !v.Anon && !v.Private // MAP_SHARED file mapping
		// Lookup charges nothing, so the copy skips the absent parts of
		// the parent's table a whole subtree at a time.
		for va, ok := pc.Next(v.Start, v.End); ok; va, ok = pc.Next(va+mem.FrameSize, v.End) {
			pa, flags, _ := pc.Lookup(va)
			frame := pa.Frame()
			childFlags := flags
			if !sharedWrites && flags&pagetable.FlagWrite != 0 {
				// Downgrade to COW on both sides.
				cow := (flags &^ pagetable.FlagWrite) | pagetable.FlagCOW
				if err := pc.Protect(cur, va, cow); err != nil {
					return nil, err
				}
				a.queueShoot(cur, va, 1)
				childFlags = cow
			} else if !sharedWrites && flags&pagetable.FlagCOW != 0 {
				childFlags = flags
			}
			if err := cc.Map(cur, va, frame, childFlags); err != nil {
				return nil, err
			}
			if pi, tracked := k.page(frame); tracked {
				k.addRmap(cur, pi, child, va)
			}
		}
		// Swapped pages are shared via COW in real kernels; the
		// simulator keeps fork simple by faulting them back in first —
		// in address order, so the frames the fault-ins allocate (and
		// thus the physical layout) are a pure function of the trace.
		for _, va := range sortedVAs(a.swapped) {
			if v.Contains(va) {
				if err := a.installPage(&pc, v, va, false); err != nil {
					return nil, err
				}
				pa, flags, _ := pc.Lookup(va)
				if !sharedWrites && flags&pagetable.FlagWrite != 0 {
					flags = (flags &^ pagetable.FlagWrite) | pagetable.FlagCOW
					if err := pc.Protect(cur, va, flags); err != nil {
						return nil, err
					}
					a.queueShoot(cur, va, 1)
				}
				if err := cc.Map(cur, va, pa.Frame(), flags); err != nil {
					return nil, err
				}
				if pi, tracked := k.page(pa.Frame()); tracked {
					k.addRmap(cur, pi, child, va)
				}
			}
		}
	}
	k.stats.Counter("forks").Inc()
	return child, nil
}
