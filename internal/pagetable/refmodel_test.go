package pagetable

import (
	"testing"
	"testing/quick"

	"repro/internal/buddy"
	"repro/internal/mem"
	"repro/internal/sim"
)

// TestReferenceModelProperty runs a long random sequence of Map, Map2M,
// Unmap, Protect and Walk operations against a trivial reference model
// (a Go map from VPN to (frame, flags)) and requires the table to agree
// with the model after every step. This is the strongest correctness
// check for the radix structure: any mis-indexed level, wrong span, or
// botched node teardown diverges from the model quickly.
func TestReferenceModelProperty(t *testing.T) {
	fn := func(seed uint64) bool {
		clock := &sim.Clock{}
		params := sim.DefaultParams()
		bud, err := buddy.New(clock, &params, 0, 1<<20)
		if err != nil {
			return false
		}
		cpu := sim.MachineOf(clock, &params).BootCPU()
		tbl, err := New(cpu, &params, NewPool(bud), Levels4)
		if err != nil {
			return false
		}
		rng := sim.NewRNG(seed)

		type mapping struct {
			frame mem.Frame
			flags Flags
			huge  bool
		}
		model := make(map[uint64]mapping) // key: base VPN of the mapping

		// Address pool: a few 2 MiB-aligned regions plus scattered 4K
		// pages, so huge and small mappings interact.
		randVA := func() mem.VirtAddr {
			region := mem.VirtAddr(rng.Intn(8)) << 30
			return region + mem.VirtAddr(rng.Intn(4096))*mem.FrameSize
		}
		randHugeVA := func() mem.VirtAddr {
			region := mem.VirtAddr(rng.Intn(8)) << 30
			return region + mem.VirtAddr(rng.Intn(8))*(2<<20)
		}
		overlapsModel := func(vpn, span uint64) bool {
			for base, m := range model {
				msp := uint64(1)
				if m.huge {
					msp = 512
				}
				if vpn < base+msp && base < vpn+span {
					return true
				}
			}
			return false
		}

		for step := 0; step < 400; step++ {
			switch rng.Intn(5) {
			case 0: // map 4K
				va := randVA()
				frame := mem.Frame(rng.Intn(1 << 20))
				err := tbl.Map(cpu, va, frame, FlagRead|FlagWrite)
				if overlapsModel(va.VPN(), 1) {
					if err == nil {
						t.Logf("step %d: double map of %#x accepted", step, uint64(va))
						return false
					}
				} else if err != nil {
					t.Logf("step %d: map failed: %v", step, err)
					return false
				} else {
					model[va.VPN()] = mapping{frame, FlagRead | FlagWrite, false}
				}
			case 1: // map 2M
				va := randHugeVA()
				frame := mem.Frame(rng.Intn(1<<11)) * 512
				err := tbl.Map2M(cpu, va, frame, FlagRead)
				if overlapsModel(va.VPN(), 512) {
					if err == nil {
						t.Logf("step %d: overlapping 2M map accepted", step)
						return false
					}
				} else if err != nil {
					t.Logf("step %d: 2M map failed: %v", step, err)
					return false
				} else {
					model[va.VPN()] = mapping{frame, FlagRead, true}
				}
			case 2: // unmap a random live mapping
				for base := range model {
					va := mem.VirtAddr(base) << mem.FrameShift
					frame, span, err := tbl.Unmap(cpu, va)
					if err != nil {
						t.Logf("step %d: unmap failed: %v", step, err)
						return false
					}
					m := model[base]
					wantSpan := uint64(1)
					if m.huge {
						wantSpan = 512
					}
					if frame != m.frame || span != wantSpan {
						t.Logf("step %d: unmap returned (%d,%d), want (%d,%d)", step, frame, span, m.frame, wantSpan)
						return false
					}
					delete(model, base)
					break
				}
			case 3: // protect a random live mapping
				for base, m := range model {
					va := mem.VirtAddr(base) << mem.FrameShift
					newFlags := m.flags ^ FlagWrite
					if err := tbl.Protect(cpu, va, newFlags); err != nil {
						t.Logf("step %d: protect failed: %v", step, err)
						return false
					}
					m.flags = newFlags
					model[base] = m
					break
				}
			case 4: // verify a random probe against the model
				va := randVA()
				pa, flags, ok := tbl.Lookup(va)
				var want *mapping
				var base uint64
				for b, m := range model {
					span := uint64(1)
					if m.huge {
						span = 512
					}
					if va.VPN() >= b && va.VPN() < b+span {
						mm := m
						want, base = &mm, b
						break
					}
				}
				if (want != nil) != ok {
					t.Logf("step %d: lookup(%#x) ok=%v, model=%v", step, uint64(va), ok, want != nil)
					return false
				}
				if ok {
					off := (va.VPN() - base) * mem.FrameSize
					wantPA := want.frame.Addr() + mem.PhysAddr(off) + mem.PhysAddr(va.PageOffset())
					if pa != wantPA || flags != want.flags {
						t.Logf("step %d: lookup(%#x) = (%#x,%v), want (%#x,%v)",
							step, uint64(va), uint64(pa), flags, uint64(wantPA), want.flags)
						return false
					}
				}
			}
			if step%100 == 0 {
				if err := tbl.CheckInvariants(); err != nil {
					t.Logf("step %d: %v", step, err)
					return false
				}
			}
		}
		// Full sweep: every model entry must be present and correct.
		for base, m := range model {
			va := mem.VirtAddr(base) << mem.FrameShift
			pa, flags, ok := tbl.Lookup(va)
			if !ok || pa.Frame() != m.frame || flags != m.flags {
				t.Logf("final sweep: mapping at %#x diverged", uint64(va))
				return false
			}
		}
		// Teardown releases every node.
		if err := tbl.Destroy(); err != nil {
			return false
		}
		return bud.FreeFrames() == 1<<20
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
