package vm

import (
	"fmt"

	"repro/internal/buddy"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tier"
)

// AttachTier connects a tier migration engine to the kernel. From then
// on anonymous frames are hotness-tracked (Track on allocation, access
// bits from the fault/touch paths), first-touch placement consults the
// engine's fast-tier budget (allocations overflow into the slow pool
// once the budget is spent), and the engine drives migrations through
// MigrateFrame below. Requires a slow pool (Config.SlowPoolFrames) for
// demotions to have somewhere to go. The engine's accounting
// invariants join the machine's registry.
func (k *Kernel) AttachTier(eng *tier.Engine) {
	k.tier = eng
	eng.SetBackend(k)
	k.Machine.RegisterInvariants("vm-tier", k.checkTier)
}

// checkTier audits the engine's internal accounting plus its agreement
// with the kernel's frame metadata: the engine must track exactly the
// anonymous pages, each in the tier its frame number places it.
func (k *Kernel) checkTier() error {
	if err := k.tier.CheckInvariants(); err != nil {
		return err
	}
	anon := 0
	err := k.domains(func(label string, d *metaDomain, pool *buddy.Allocator) error {
		var err error
		d.pages.Visit(func(f mem.Frame, pi *PageInfo) bool {
			if pi.Flags&PGAnon == 0 {
				return true
			}
			anon++
			if _, tracked := k.tier.TierOf(f); !tracked {
				err = fmt.Errorf("vm: anonymous frame %d (%s domain) not tier-tracked", f, label)
			}
			return err == nil
		})
		return err
	})
	if err != nil {
		return err
	}
	if anon != k.tier.Tracked() {
		return fmt.Errorf("vm: tier engine tracks %d frames, kernel holds %d anonymous pages", k.tier.Tracked(), anon)
	}
	return nil
}

// tierPump executes queued promotions at a quiescent point — the end
// of a user access, after the data plane has used the translation it
// faulted in, so a promotion can never move a frame between its
// translation and its data access.
func (k *Kernel) tierPump(cur *sim.CPU) {
	if k.tier != nil {
		k.tier.Pump(cur)
	}
}

// TierScan advances the hotness clock hand over up to batch tracked
// frames (drivers call it periodically, the analogue of kswapd's aging
// scan).
func (k *Kernel) TierScan(cur *sim.CPU, batch int) {
	if k.tier != nil {
		k.tier.Scan(cur, batch)
	}
}

// MigrateFrame implements tier.Backend: move the anonymous page backed
// by f into the target tier through the kernel's real machinery. The
// page gets a fresh frame from the target tier's pool, its bytes are
// copied, every mapper found via the rmap is remapped with its flags
// preserved, stale TLB entries are shot down in one coalesced batch
// per address space, and the old frame is scrubbed before it returns
// to its buddy pool. Pinned, mlocked, compound, and file-backed pages
// decline (file pages migrate at file granularity via memfs/core).
func (k *Kernel) MigrateFrame(cur *sim.CPU, f mem.Frame, to mem.RegionKind) (uint64, bool) {
	pi, ok := k.page(f)
	if !ok {
		return 0, false
	}
	if pi.Flags&(PGMlocked|PGPinned|PGCompound|PGWriteback) != 0 || pi.Flags&PGAnon == 0 {
		return 0, false
	}
	if k.Memory.Kind(f) == to {
		return 0, false
	}

	// Target frame from the target tier's pool. Migration never
	// triggers reclaim: a full target tier is a declined migration,
	// not a reason to evict.
	var nf mem.Frame
	var err error
	if to == mem.DRAM {
		nf, err = k.pool.AllocFrame()
	} else if k.slowPool != nil {
		nf, err = k.slowPool.AllocFrame()
	} else {
		return 0, false
	}
	if err != nil {
		return 0, false
	}
	k.cAnonAllocs.Inc()
	k.Memory.CopyFramesOn(cur, nf, f, 1)

	// Remap every mapper. The rmap keys (address space, va) do not
	// change, only the frame each PTE points at, so the rmap itself
	// carries over with the re-keyed PageInfo.
	k.rmapScratch = append(k.rmapScratch[:0], pi.rmap...)
	for _, e := range k.rmapScratch {
		_, flags, lok := e.as.pt.Lookup(e.va)
		if !lok {
			panic("vm: tier migration found rmap entry without a PTE")
		}
		if _, _, uerr := e.as.pt.Unmap(cur, e.va); uerr != nil {
			panic("vm: tier migration unmap failed: " + uerr.Error())
		}
		if merr := e.as.pt.Map(cur, e.va, nf, flags); merr != nil {
			panic("vm: tier migration remap failed: " + merr.Error())
		}
	}
	// Coalesced shootdowns, one batch per address space in rmap order
	// (mmu_gather-style: one IPI round per mapper burst, not per page).
	var prev *AddressSpace
	for _, e := range k.rmapScratch {
		if e.as != prev {
			if prev != nil {
				prev.flushShoot(cur)
			}
			e.as.beginShoot()
			prev = e.as
		}
		e.as.queueShoot(cur, e.va, 1)
	}
	if prev != nil {
		prev.flushShoot(cur)
	}

	// Re-key the metadata to the new frame, keeping hotness flags,
	// rmap, and LRU position. Crossing into a different metadata
	// domain re-files the record (and its LRU membership) there.
	od, nd := k.domainOf(f), k.domainOf(nf)
	od.drop(f)
	pi.Frame = nf
	nd.put(nf, pi)
	if od != nd && pi.list != nil {
		if pi.Flags&PGActive != 0 {
			nd.active.pushBack(pi)
		} else {
			nd.inactive.pushBack(pi)
		}
	}
	k.chargeMeta(cur, 1)
	k.tier.Moved(f, nf)

	// Scrub the migrated-away frame before its buddy recycles it: its
	// stale contents must never leak into the next allocation.
	k.Memory.ZeroFramesOn(cur, f, 1)
	if ferr := k.freeAnonFrame(f); ferr != nil {
		panic("vm: tier migration free failed: " + ferr.Error())
	}
	k.stats.Counter("tier_migrations").Inc()
	return 1, true
}
