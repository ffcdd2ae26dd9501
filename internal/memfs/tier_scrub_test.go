package memfs

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tier"
)

// newTieredFS mounts an extent FS over NVM with a DRAM fast region of
// fastFrames frames and a tier engine capped at fastCap.
func newTieredFS(t *testing.T, policy tier.Policy, fastCap, fastFrames uint64) (*FS, *mem.Memory, *tier.Engine, *sim.CPU) {
	t.Helper()
	params := sim.DefaultParams()
	machine := sim.NewMachine(&params, 1, 1)
	m, err := mem.New(machine.Clock(), &params, mem.Config{DRAMFrames: 256, NVMFrames: 1024})
	if err != nil {
		t.Fatal(err)
	}
	nvm, _ := m.Region(mem.NVM)
	fs, err := New("tiered", Extent, machine.Clock(), &params, m, nvm.Start, nvm.Count)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := tier.New(&params, m, policy, fastCap)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.AttachTier(eng, 0, fastFrames); err != nil {
		t.Fatal(err)
	}
	return fs, m, eng, machine.CPU(0)
}

// TestMigratedFrameScrubbedBeforeRecycle is the migration poison test:
// after a frame is promoted away, its old slow-tier backing must read
// as zero — the scrub runs before the buddy recycles the frame, so a
// later allocation can never resurrect the page's bytes.
func TestMigratedFrameScrubbedBeforeRecycle(t *testing.T) {
	fs, m, eng, cpu := newTieredFS(t, tier.Promote, 64, 128)

	// First file saturates the fast budget, so the second file's frames
	// are placed in the slow tier.
	filler, err := fs.CreateTemp("filler", CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := filler.EnsureContiguous(64); err != nil {
		t.Fatal(err)
	}
	victim, err := fs.CreateTemp("victim", CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.EnsureContiguous(4); err != nil {
		t.Fatal(err)
	}
	old := victim.Inode().extents[0].Start
	if m.Kind(old) != mem.NVM {
		t.Fatalf("victim file landed in the fast tier (frame %d) — fast budget not saturated", old)
	}

	// Poison the page through the file, then heat it so the next pump
	// promotes it (fast budget freed first so the promotion proceeds).
	if _, err := victim.WriteAt([]byte{0xAB}, 0); err != nil {
		t.Fatal(err)
	}
	if err := filler.Close(); err != nil { // frees the fast budget
		t.Fatal(err)
	}
	if _, err := victim.WriteAt([]byte{0xAB}, 0); err != nil { // records the access
		t.Fatal(err)
	}
	before := tier.TelemetrySnapshot()
	eng.Pump(cpu)
	if d := tier.TelemetrySnapshot().Sub(before); d.Promotions == 0 {
		t.Fatalf("pump performed no promotion (delta %+v)", d)
	}

	now := victim.Inode().extents
	if len(now) == 0 || m.Kind(now[0].Start) != mem.DRAM {
		t.Fatalf("victim page not in the fast tier after promotion (extents %+v)", now)
	}
	// The file still reads its contents through the new frame...
	var b [1]byte
	if _, err := victim.ReadAt(b[:], 0); err != nil || b[0] != 0xAB {
		t.Fatalf("file contents lost across migration: %v 0x%02x", err, b[0])
	}
	// ...and the migrated-away frame's backing is scrubbed.
	if got := m.ReadByteAt(old.Addr()); got != 0 {
		t.Fatalf("migrated-away frame %d still holds 0x%02x — old backing not scrubbed", old, got)
	}
	if err := m.SpareScrubbed(); err != nil {
		t.Fatalf("poison reached the recycled-array pool: %v", err)
	}
	if err := fs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
