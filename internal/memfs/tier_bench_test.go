package memfs

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tier"
)

// BenchmarkMigrateExtent moves one 512-frame extent between the tiers
// and back: per frame, a copy, a scrub, one engine Moved and two
// owner-index writes.
func BenchmarkMigrateExtent(b *testing.B) {
	const pages = 512
	params := sim.DefaultParams()
	machine := sim.NewMachine(&params, 1, 1)
	m, err := mem.New(machine.Clock(), &params, mem.Config{DRAMFrames: 2 * pages, NVMFrames: 4 * pages})
	if err != nil {
		b.Fatal(err)
	}
	nvm, _ := m.Region(mem.NVM)
	fs, err := New("bench", Extent, machine.Clock(), &params, m, nvm.Start, nvm.Count)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := tier.New(&params, m, tier.None, 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := fs.AttachTier(eng, 0, 2*pages); err != nil {
		b.Fatal(err)
	}
	f, err := fs.CreateTemp("hot", CreateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if err := f.EnsureContiguous(pages); err != nil {
		b.Fatal(err)
	}
	ino, cpu := f.Inode(), machine.CPU(0)
	e := ino.Extents()[0]
	if e.Count != pages {
		b.Fatalf("extent of %d frames, want %d", e.Count, pages)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		to := mem.DRAM
		if m.Kind(e.Start) == mem.DRAM {
			to = mem.NVM
		}
		var ok bool
		if e, ok = fs.MigrateExtent(cpu, ino, e, to); !ok {
			b.Fatalf("migration %d to %v declined", i, to)
		}
	}
	b.StopTimer()
	if err := fs.checkTier(); err != nil {
		b.Fatal(err)
	}
}
