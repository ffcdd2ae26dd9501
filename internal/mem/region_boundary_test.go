package mem

import (
	"testing"

	"repro/internal/sim"
)

// TestRegionBoundaryFrames pins the DRAM/NVM seam: the last DRAM frame
// and the first NVM frame are physically adjacent, classify into
// different tiers, and behave differently across a crash.
func TestRegionBoundaryFrames(t *testing.T) {
	m, _, _ := newTestMemory(t) // DRAM [0,1024), NVM [1024,3072)
	lastDRAM, firstNVM := Frame(1023), Frame(1024)

	if k := m.Kind(lastDRAM); k != DRAM {
		t.Fatalf("Kind(%d) = %v, want DRAM", lastDRAM, k)
	}
	if k := m.Kind(firstNVM); k != NVM {
		t.Fatalf("Kind(%d) = %v, want NVM", firstNVM, k)
	}
	if k := m.Kind(Frame(3071)); k != NVM {
		t.Fatalf("Kind(3071) = %v, want NVM", k)
	}
	dram, _ := m.Region(DRAM)
	nvm, _ := m.Region(NVM)
	if dram.End() != nvm.Start {
		t.Fatalf("regions not adjacent: DRAM ends at %d, NVM starts at %d", dram.End(), nvm.Start)
	}
	// A range straddling the seam is valid physical memory...
	if !m.Valid(lastDRAM, 2) {
		t.Fatal("range straddling the DRAM/NVM boundary reported invalid")
	}
	// ...but one frame past the end of NVM is not.
	if m.Valid(Frame(3071), 2) || m.Valid(Frame(3072), 1) {
		t.Fatal("range past the last NVM frame reported valid")
	}

	// Persistence splits exactly at the seam: the DRAM side of the
	// boundary loses its contents on a crash, the NVM side keeps them.
	m.WriteAt(lastDRAM.Addr(), []byte{0xD7})
	m.WriteAt(firstNVM.Addr(), []byte{0x4E})
	m.Crash()
	if got := readByte(m, lastDRAM.Addr()); got != 0 {
		t.Fatalf("last DRAM frame survived the crash with 0x%02x", got)
	}
	if got := readByte(m, firstNVM.Addr()); got != 0x4E {
		t.Fatalf("first NVM frame lost its contents across the crash: 0x%02x", got)
	}
}

// TestZeroFrameRegionConfigs: a machine may omit either region — the
// remaining one starts at frame 0 and the missing one is simply absent
// — but not both.
func TestZeroFrameRegionConfigs(t *testing.T) {
	clock := &sim.Clock{}
	params := sim.DefaultParams()

	nvmOnly, err := New(clock, &params, Config{NVMFrames: 128})
	if err != nil {
		t.Fatalf("NVM-only machine rejected: %v", err)
	}
	if got := len(nvmOnly.regions); got != 1 {
		t.Fatalf("NVM-only machine has %d regions, want 1", got)
	}
	if k := nvmOnly.Kind(0); k != NVM {
		t.Fatalf("NVM-only Kind(0) = %v, want NVM", k)
	}
	if _, ok := nvmOnly.Region(DRAM); ok {
		t.Fatal("NVM-only machine reports a DRAM region")
	}
	if nvmOnly.TotalFrames() != 128 || !nvmOnly.Valid(0, 128) || nvmOnly.Valid(0, 129) {
		t.Fatalf("NVM-only sizing wrong: total %d", nvmOnly.TotalFrames())
	}

	dramOnly, err := New(clock, &params, Config{DRAMFrames: 64})
	if err != nil {
		t.Fatalf("DRAM-only machine rejected: %v", err)
	}
	if _, ok := dramOnly.Region(NVM); ok {
		t.Fatal("DRAM-only machine reports an NVM region")
	}
	if k := dramOnly.Kind(63); k != DRAM {
		t.Fatalf("DRAM-only Kind(63) = %v, want DRAM", k)
	}

	if _, err := New(clock, &params, Config{}); err == nil {
		t.Fatal("machine with both regions empty accepted")
	}
}
