package vm

import (
	"repro/internal/pagetable"
	"repro/internal/tlb"
)

// Spares is the host storage a released Kernel hands to the next
// Kernel its owner builds (NewKernelFrom): TLB arrays, page-table node
// structs and swap-slot buffers, every part scrubbed. It changes
// nothing simulated; the frames themselves travel through
// mem.Spares.
type Spares struct {
	tlb   tlb.Spares
	nodes pagetable.Spares
	swap  [][]byte
}

// Release tears k down into s and leaves k unusable: it destroys every
// live address space's page table into its node pool, then hands on
// the pools' node structs, the TLB arrays and the swap buffers, and k
// keeps no reference to any of them. Nothing simulated is preserved,
// so release a kernel only after its machine's last capture.
func (k *Kernel) Release(s *Spares) error {
	for i := range k.shards {
		for _, as := range k.shards[i].spaces {
			if err := as.pt.Destroy(); err != nil {
				return err
			}
		}
		k.shards[i].spaces = nil
	}
	k.meta.ptNodes.Release(&s.nodes)
	for _, ar := range k.arenas {
		ar.meta.ptNodes.Release(&s.nodes)
	}
	for _, t := range k.tlbs {
		t.Release(&s.tlb)
	}
	s.swap = k.swap.release(s.swap)
	return nil
}

// release appends the device's buffers to bufs, scrubbed and up to
// maxSpareSwap in all, and leaves the device unusable.
func (s *SwapDevice) release(bufs [][]byte) [][]byte {
	take := func(buf []byte) {
		if len(bufs) < maxSpareSwap {
			clear(buf)
			bufs = append(bufs, buf)
		}
	}
	for _, buf := range s.spare {
		take(buf)
	}
	for _, buf := range s.slots {
		take(buf)
	}
	s.slots, s.spare = nil, nil
	return bufs
}
