package core

import (
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/rangetable"
	"repro/internal/sim"
	"repro/internal/tier"
)

// AttachTier connects a tier migration engine to the system: the file
// store gains a fast-tier (DRAM) block region next to its slow (NVM)
// one, every file frame becomes hotness-tracked, and the System
// replaces the file system as the engine's backend. The difference
// matters: the FS backend splits extents to move single pages (the
// object-map story), but a core system's range translations and
// subtree links address whole extents — so here a hot page drags its
// entire extent across tiers, the O(extent) cost the paper's
// O(1)-operations design trades against.
//
// The fast region must not overlap the SharedPT page-table pool, which
// by default covers all of DRAM; tier-enabled systems pass explicit
// Options splitting DRAM between the two.
func (s *System) AttachTier(eng *tier.Engine, fastBase mem.Frame, fastFrames uint64) error {
	if s.tier != nil {
		return fmt.Errorf("core: tier engine already attached")
	}
	pt := s.ptPool.bud
	if fastBase < pt.Base()+mem.Frame(pt.Size()) && pt.Base() < fastBase+mem.Frame(fastFrames) {
		return fmt.Errorf("core: fast region [%d,+%d) overlaps the page-table pool [%d,+%d)",
			fastBase, fastFrames, pt.Base(), pt.Size())
	}
	if err := s.fs.AttachTier(eng, fastBase, fastFrames); err != nil {
		return err
	}
	s.tier = eng
	eng.SetBackend(s) // override the FS's page-split backend
	return nil
}

// tierPump executes queued promotions at a quiescent point of the
// access path (see tier.Engine.Pump).
func (s *System) tierPump(cur *sim.CPU) {
	if s.tier != nil {
		s.tier.Pump(cur)
	}
}

// TierScan advances the hotness clock hand over up to batch frames,
// demoting cold fast-tier extents under the demote/smart policies.
// Drivers call it periodically, charging cur.
func (s *System) TierScan(cur *sim.CPU, batch int) {
	if s.tier != nil {
		s.tier.Scan(cur, batch)
	}
}

// MigrateFrame implements tier.Backend for range-translated file-only
// memory: the extent covering f moves to the target tier as a whole,
// and every live mapping of it — range-table entries and linked
// page-table subtrees alike — is rebuilt at the new PBM address with
// one coalesced shootdown round per affected process. Returns the
// extent's page count, so the engine's telemetry shows the O(extent)
// amplification a single hot page causes here.
func (s *System) MigrateFrame(cur *sim.CPU, f mem.Frame, to mem.RegionKind) (uint64, bool) {
	ino := s.fs.Owner(f)
	if ino == nil {
		return 0, false
	}
	old, ok := coveringExtent(ino, f)
	if !ok {
		panic(fmt.Sprintf("core: tier owner index points at frame %d without an extent", f))
	}

	// Collect every live segment over the extent before the FS mutates
	// it, in PID order — Go map iteration must not reach the clocks.
	type remap struct {
		p   *Process
		m   *Mapping
		seg int
	}
	var remaps []remap
	pids := make([]int, 0, len(s.live))
	for pid := range s.live {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		p := s.live[pid]
		bases := make([]mem.VirtAddr, 0, len(p.mappings))
		for base := range p.mappings {
			bases = append(bases, base)
		}
		sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
		for _, base := range bases {
			m := p.mappings[base]
			if m.file.Inode() != ino {
				continue
			}
			for i, seg := range m.segments {
				if seg.Frame == old.Start && seg.Pages == old.Count && seg.FileOff == old.Logical {
					remaps = append(remaps, remap{p: p, m: m, seg: i})
				}
			}
		}
	}

	// Move the bytes and the extent map. A SharedPT mapper needs the
	// replacement chunk-aligned; the buddy's covering-block alignment
	// guarantees it for the chunk-multiple extents SharedPT links.
	run, ok := s.fs.MigrateExtent(cur, ino, old, to)
	if !ok {
		return 0, false
	}

	// Rebuild each mapper's translations at the new physical (and thus
	// PBM virtual) address. Failures here would strand a half-migrated
	// mapping, which no caller can repair — genuine corruption.
	for _, r := range remaps {
		p := r.p
		oldSeg := r.m.segments[r.seg]
		newSeg := Segment{
			VA:      VAForPhys(run.Start.Addr()),
			Frame:   run.Start,
			Pages:   run.Count,
			FileOff: run.Logical,
		}
		delete(p.mappings, r.m.Base())
		p.beginShoot()
		if err := p.unmapSegmentOn(cur, oldSeg); err != nil {
			panic(fmt.Sprintf("core: tier migration unmap (pid %d): %v", p.pid, err))
		}
		switch p.mode {
		case Ranges:
			if err := p.ranges.Insert(rangetable.Entry{
				VBase: newSeg.VA,
				Pages: newSeg.Pages,
				PBase: newSeg.Frame,
				Flags: r.m.prot,
			}); err != nil {
				panic(fmt.Sprintf("core: tier migration range insert (pid %d): %v", p.pid, err))
			}
		case SharedPT:
			if err := p.linkSegmentOn(cur, newSeg, r.m.prot); err != nil {
				panic(fmt.Sprintf("core: tier migration relink (pid %d): %v", p.pid, err))
			}
		}
		p.flushShootOn(cur)
		r.m.segments[r.seg] = newSeg
		p.mappings[r.m.Base()] = r.m
	}
	s.stats.Counter("tier_extent_migrations").Inc()
	return run.Count, true
}

// coveringExtent finds the extent of ino covering physical frame f.
func coveringExtent(ino *memfs.Inode, f mem.Frame) (memfs.ExtentRun, bool) {
	for _, e := range ino.Extents() {
		if f >= e.Start && f < e.Start+mem.Frame(e.Count) {
			return e, true
		}
	}
	return memfs.ExtentRun{}, false
}
