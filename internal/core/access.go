package core

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/rangetable"
	"repro/internal/tlb"
)

// AccessError reports an invalid access in a file-only-memory process.
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
	return fmt.Sprintf("core: invalid %s at %#x: %s", kind, uint64(e.VA), e.Cause)
}

// Touch simulates one memory access. There is no fault path: every
// byte of every mapping is translatable immediately after the O(1)
// map, so the worst case is a range-table walk or page walk.
func (p *Process) Touch(va mem.VirtAddr, write bool) error {
	_, err := p.translate(va, write)
	p.sys.tierPump(p.cpu)
	return err
}

func (p *Process) translate(va mem.VirtAddr, write bool) (mem.PhysAddr, error) {
	p.run()
	p.cTouches.Inc()
	switch p.mode {
	case Ranges:
		return p.translateRanges(va, write)
	default:
		return p.translateSharedPT(va, write)
	}
}

func (p *Process) translateRanges(va mem.VirtAddr, write bool) (mem.PhysAddr, error) {
	rtlb := p.sys.rtlbs[p.cpu.ID()]
	e, hit := rtlb.Lookup(p.pid, va)
	if !hit {
		var ok bool
		e, ok = p.ranges.Lookup(va)
		if !ok {
			return 0, &AccessError{VA: va, Write: write, Cause: "no range translation"}
		}
		rtlb.Insert(p.pid, e)
	}
	if err := checkProt(e.Flags, va, write); err != nil {
		return 0, err
	}
	pa := e.Translate(va)
	p.chargeDataRef(pa, write)
	return pa, nil
}

func (p *Process) translateSharedPT(va mem.VirtAddr, write bool) (mem.PhysAddr, error) {
	cur := p.cpu
	ptlb := p.sys.tlbs[cur.ID()]
	if tr, hit := ptlb.Lookup(p.pid, va); hit {
		if err := checkProt(tr.Flags, va, write); err != nil {
			return 0, err
		}
		pa := tr.Translate(va)
		p.chargeDataRef(pa, write)
		return pa, nil
	}
	pa, flags, levels, ok := p.pt.Walk(cur, va)
	if !ok {
		return 0, &AccessError{VA: va, Write: write, Cause: "no page-table translation"}
	}
	if err := checkProt(flags, va, write); err != nil {
		return 0, err
	}
	pageBytes := p.pt.LeafBytes(levels)
	size, _ := tlb.SizeForFrames(pageBytes / mem.FrameSize)
	base := pa - mem.PhysAddr(uint64(va)%pageBytes)
	ptlb.Insert(p.pid, va, tlb.Translation{Frame: base.Frame(), Size: size, Flags: flags})
	p.chargeDataRef(pa, write)
	return pa, nil
}

func checkProt(flags pagetable.Flags, va mem.VirtAddr, write bool) error {
	if write && flags&pagetable.FlagWrite == 0 {
		return &AccessError{VA: va, Write: true, Cause: "write to read-only mapping"}
	}
	if !write && flags&pagetable.FlagRead == 0 {
		return &AccessError{VA: va, Write: false, Cause: "read from unreadable mapping"}
	}
	return nil
}

func (p *Process) chargeDataRef(pa mem.PhysAddr, write bool) {
	s := p.sys
	cost := s.params.MemRef
	if s.memory.Kind(pa.Frame()) == mem.NVM {
		if write {
			cost += s.params.NVMWritePenalty
		} else {
			cost += s.params.NVMReadPenalty
		}
	}
	s.clock.Advance(cost)
	if s.tier != nil {
		s.tier.Record(pa.Frame(), write)
	}
}

// WriteBuf stores buf at va through the translation path.
func (p *Process) WriteBuf(va mem.VirtAddr, buf []byte) error {
	for len(buf) > 0 {
		pa, err := p.translate(va, true)
		if err != nil {
			return err
		}
		n := mem.FrameSize - va.PageOffset()
		if n > uint64(len(buf)) {
			n = uint64(len(buf))
		}
		p.sys.memory.WriteAt(pa, buf[:n])
		buf = buf[n:]
		va += mem.VirtAddr(n)
	}
	p.sys.tierPump(p.cpu)
	return nil
}

// ReadBuf loads len(buf) bytes from va through the translation path.
func (p *Process) ReadBuf(va mem.VirtAddr, buf []byte) error {
	for len(buf) > 0 {
		pa, err := p.translate(va, false)
		if err != nil {
			return err
		}
		n := mem.FrameSize - va.PageOffset()
		if n > uint64(len(buf)) {
			n = uint64(len(buf))
		}
		p.sys.memory.ReadAt(pa, buf[:n])
		buf = buf[n:]
		va += mem.VirtAddr(n)
	}
	p.sys.tierPump(p.cpu)
	return nil
}

// ReadByteAt loads one byte via the translation path.
func (p *Process) ReadByteAt(va mem.VirtAddr) (byte, error) {
	var b [1]byte
	if err := p.ReadBuf(va, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

// WriteByteAt stores one byte via the translation path.
func (p *Process) WriteByteAt(va mem.VirtAddr, v byte) error {
	return p.WriteBuf(va, []byte{v})
}

// RTLB exposes the range TLB of the process's home CPU. With one CPU
// (the default) this is the machine's only range TLB.
func (p *Process) RTLB() *rangetable.RTLB { return p.sys.rtlbs[p.cpu.ID()] }
