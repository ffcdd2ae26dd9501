package vm

import (
	"testing"

	"repro/internal/mem"
)

// TestRecycleScrubsPoisonedPageInfo poisons the hidden capacity of
// live rmap backing arrays — the exact state a partial scrub used to
// leak — then recycles the records and asserts no poison survives
// into the spare pool.
func TestRecycleScrubsPoisonedPageInfo(t *testing.T) {
	_, kernel := newSMPMachine(t, 1, 0)
	as, err := kernel.NewAddressSpace()
	if err != nil {
		t.Fatal(err)
	}
	va, err := as.Mmap(MmapRequest{Pages: 4, Prot: rw, Anon: true, Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	if kernel.meta.live == 0 {
		t.Fatal("populate tracked no pages")
	}
	// Poison: stale entries past the rmap's length, holding a live
	// address-space pointer and a bogus va. A reset that only truncates
	// the slice would retain both.
	kernel.meta.pages.Visit(func(_ mem.Frame, pi *PageInfo) bool {
		n := len(pi.rmap)
		pi.rmap = append(pi.rmap, rmapEntry{as: as, va: 0xdead000})[:n]
		return true
	})
	if err := as.Munmap(va, 4); err != nil {
		t.Fatal(err)
	}
	if len(kernel.meta.sparePages) == 0 {
		t.Fatal("munmap recycled no PageInfo records")
	}
	if err := kernel.SpareScrubbed(); err != nil {
		t.Fatalf("poison survived recycling: %v", err)
	}
	for i, p := range kernel.meta.sparePages {
		for j, e := range p.rmap[:cap(p.rmap)] {
			if e.as != nil || e.va != 0 {
				t.Fatalf("spare %d retains poisoned rmap entry %d: %+v", i, j, e)
			}
		}
	}
}

// TestSpareScrubbedDetectsPoison is the negative control: a poisoned
// spare must be reported, or the scrub assertions prove nothing.
func TestSpareScrubbedDetectsPoison(t *testing.T) {
	_, kernel := newSMPMachine(t, 1, 0)
	poisoned := &PageInfo{}
	poisoned.rmap = append(poisoned.rmap, rmapEntry{va: mem.VirtAddr(0x1000)})[:0]
	kernel.meta.sparePages = append(kernel.meta.sparePages, poisoned)
	if err := kernel.SpareScrubbed(); err == nil {
		t.Fatal("poisoned spare PageInfo went undetected")
	}
	kernel.meta.sparePages = nil
	kernel.meta.sparePages = append(kernel.meta.sparePages, &PageInfo{Frame: 7})
	if err := kernel.SpareScrubbed(); err == nil {
		t.Fatal("non-zero spare PageInfo field went undetected")
	}
}
