package vm

import (
	"bytes"
	"testing"

	"repro/internal/mem"
)

// TestSwapBuffersReused pins the swap device's buffer reuse: slot
// numbers keep ascending whatever is freed, a freed slot's buffer
// serves the next swap-out instead of a fresh allocation, the list of
// freed buffers stays within maxSpareSwap, and release hands every
// buffer on scrubbed.
func TestSwapBuffersReused(t *testing.T) {
	s := newSwapDevice(0)
	var bufs [][]byte
	for want := 0; want < 4; want++ {
		slot, buf, err := s.alloc()
		if err != nil || slot != want || len(buf) != mem.FrameSize {
			t.Fatalf("alloc = (%d, %d bytes, %v), want slot %d", slot, len(buf), err, want)
		}
		buf[0] = byte(slot + 1)
		bufs = append(bufs, buf)
	}
	s.free(1)
	slot, buf, err := s.alloc()
	if err != nil || slot != 4 || &buf[0] != &bufs[1][0] {
		t.Fatalf("alloc after free = slot %d (err %v), reused buffer %v; want slot 4 on slot 1's buffer", slot, err, &buf[0] == &bufs[1][0])
	}
	if len(s.spare) != 0 {
		t.Fatalf("%d spare buffers after reuse", len(s.spare))
	}
	for i := 0; i < maxSpareSwap+8; i++ {
		slot, _, _ := s.alloc()
		s.free(slot)
	}
	for slot := 0; slot < 6+maxSpareSwap; slot++ {
		s.free(slot)
	}
	if len(s.spare) > maxSpareSwap {
		t.Fatalf("%d spare buffers, cap %d", len(s.spare), maxSpareSwap)
	}
	out := s.release(nil)
	if len(out) == 0 || len(out) > maxSpareSwap {
		t.Fatalf("released %d buffers", len(out))
	}
	for i, b := range out {
		if !bytes.Equal(b, make([]byte, mem.FrameSize)) {
			t.Fatalf("released buffer %d not scrubbed", i)
		}
	}
}
