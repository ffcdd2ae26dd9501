package core

import (
	"repro/internal/pagetable"
	"repro/internal/tlb"
)

// Spares is the host storage a released System hands to the next
// System its owner builds (NewSystemFrom): page-TLB arrays and
// page-table node structs, every part scrubbed. It changes nothing
// simulated; the frames themselves travel through mem.Spares.
type Spares struct {
	tlb   tlb.Spares
	nodes pagetable.Spares
}

// Release tears sys down into s and leaves it unusable: it destroys
// every live process's page table and the master tables into the node
// pool, then hands on the pool's node structs and the page-TLB arrays,
// and sys keeps no reference to any of them. Nothing simulated is
// preserved, so release a system only after its machine's last
// capture.
func (s *System) Release(into *Spares) error {
	for _, p := range s.live {
		if p.pt != nil {
			if err := p.pt.Destroy(); err != nil {
				return err
			}
		}
	}
	for _, m := range s.masters {
		if err := m.table.Destroy(); err != nil {
			return err
		}
	}
	s.live, s.masters = nil, nil
	s.ptPool.nodes.Release(&into.nodes)
	for _, t := range s.tlbs {
		t.Release(&into.tlb)
	}
	return nil
}
