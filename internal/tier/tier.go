// Package tier implements a two-tier memory migration engine layered
// over internal/mem: DRAM is the fast tier, NVM the slow tier. The
// engine tracks per-frame hotness with access-bit sampling (fed from
// the vm/core fault and touch paths) aged by a clock-hand scanner
// charged in simulated time, and drives one of four migration
// policies:
//
//   - none:    first-touch placement only, no migration
//   - promote: on-fault promotion of accessed slow-tier frames
//   - demote:  clock-based demotion of cold fast-tier frames once
//     fast-tier occupancy crosses a high-water mark
//   - smart:   bidirectional — promote hot slow frames, pairing each
//     with the coldest fast frame when the fast tier is full
//
// The engine never moves bytes itself: migration goes through a
// Backend (vm kernel, core system, or memfs file system) that owns the
// real translation machinery — page tables and rmaps, FOM object maps,
// or range translations — so a migrated page genuinely gets a new
// physical frame and every translation pointing at the old one is
// updated and shot down. The engine only decides *which* frame moves
// *where*, maintains per-tier occupancy accounting, and charges the
// policy's simulated cost (TierScanFrame per scanned frame,
// TierPolicyOp per migration decision).
package tier

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Policy selects the migration policy.
type Policy int

const (
	// None performs no migrations: frames stay where first placed.
	None Policy = iota
	// Promote moves a slow-tier frame to the fast tier when it is
	// accessed, as long as the fast tier has room.
	Promote
	// Demote evicts cold fast-tier frames to the slow tier when
	// fast-tier occupancy crosses the high-water mark, making room for
	// new fast-tier allocations.
	Demote
	// Smart combines both directions: accessed slow frames are
	// promoted, and when the fast tier is full the coldest fast frame
	// is demoted to make room (a bidirectional swap).
	Smart
)

// Policies lists all policies in definition order (for sweeps).
var Policies = []Policy{None, Promote, Demote, Smart}

// String returns the policy's flag-spelling name.
func (p Policy) String() string {
	switch p {
	case None:
		return "none"
	case Promote:
		return "promote"
	case Demote:
		return "demote"
	case Smart:
		return "smart"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy parses a policy name as spelled by String.
func ParsePolicy(s string) (Policy, error) {
	for _, p := range Policies {
		if p.String() == s {
			return p, nil
		}
	}
	return None, fmt.Errorf("tier: unknown policy %q (want none|promote|demote|smart)", s)
}

// Backend is the translation layer that owns the frames the engine
// manages. MigrateFrame must move the page backed by f to a new frame
// in the target tier through the backend's real machinery — new frame
// allocated from the target tier, byte contents copied, every
// translation (page tables + rmap, object maps, range tables) updated,
// and stale TLB entries shot down — then report the relocation(s) via
// Engine.Moved. It returns the number of frames actually relocated
// (range-translated backends may have to move a whole extent or split
// one) and whether the migration happened; declining (frame pinned,
// target tier full, frame no longer live) returns ok=false and is
// counted as a stall, not an error.
type Backend interface {
	MigrateFrame(cur *sim.CPU, f mem.Frame, to mem.RegionKind) (pages uint64, ok bool)
}

// frameState is one clock-ring slot: the tracked frame and its
// hotness state, held by value so the per-frame paths touch no heap
// object of their own.
type frameState struct {
	f        mem.Frame // ringDead marks a tombstone
	hot      uint8     // aged access history; bit 7 = most recent scan epoch
	accessed bool      // access bit since the last scan
	pending  bool      // queued for promotion in pending
}

// Engine tracks frame hotness and drives migrations. It is not
// goroutine-safe: in host-parallel phases each CPU context owns its
// own engine (mirroring the per-CPU kernels in the bench drivers), or
// calls arrive inside machine-ordered sections.
type Engine struct {
	params  *sim.Params
	memory  *mem.Memory
	policy  Policy
	backend Backend

	// fastCap is the maximum number of tracked frames the engine will
	// place in the fast tier; highWater/lowWater derive from it and
	// bound the demotion hysteresis.
	fastCap   uint64
	highWater uint64
	lowWater  uint64

	// slow is memory's NVM region (Count 0 when it has none). Every
	// other frame is fast tier: mem.Kind counts a frame outside every
	// region as DRAM, and a Memory has at most one region per kind, so
	// fast reduces Kind to one bounds test.
	slow mem.Region

	// slot maps every frame of memory to its clock-ring slot plus one
	// (0: untracked), so a frame's state is one table read away and a
	// move re-points two entries.
	slot    mem.FrameTable[uint32]
	ring    []frameState // clock order; tombstones have f == ringDead
	tracked int          // live ring slots
	dead    int          // tombstone count, triggers compaction
	hand    int

	fastUsed uint64
	slowUsed uint64

	// pending holds slow-tier frames queued for promotion by Record;
	// they migrate in Pump, at a quiescent point of the faulting
	// operation, so the backend never re-enters its own fault path.
	// A frame is queued while its slot's pending flag is set.
	pending []mem.Frame

	// migrating suppresses Track/Untrack while a backend relocates
	// frames: the backend reports the move via Moved instead, so
	// hotness state follows the data.
	migrating bool
}

// ringDead tombstones a ring slot whose frame was untracked.
const ringDead = ^mem.Frame(0)

// maxPending bounds the promotion queue; beyond it new candidates are
// dropped (counted as stalls) rather than growing without bound.
const maxPending = 1024

// New creates an engine over m with the given policy and fast-tier
// capacity (in frames). The backend may be attached later via
// SetBackend (the vm/core constructors attach themselves). Memories of
// more than mem.MaxTableFrames frames are rejected: the slot table
// covers every frame.
func New(params *sim.Params, m *mem.Memory, policy Policy, fastCap uint64) (*Engine, error) {
	slot, err := mem.NewFrameTable[uint32](0, m.TotalFrames())
	if err != nil {
		return nil, fmt.Errorf("tier: %w", err)
	}
	e := &Engine{
		params:  params,
		memory:  m,
		policy:  policy,
		fastCap: fastCap,
		slot:    slot,
	}
	e.slow, _ = m.Region(mem.NVM)
	// Demotion hysteresis: start demoting at 7/8 of capacity, stop at
	// 3/4, so the scanner works in bursts instead of one frame per op.
	e.highWater = fastCap - fastCap/8
	e.lowWater = fastCap - fastCap/4
	if e.lowWater == 0 {
		e.lowWater = 1
	}
	return e, nil
}

// SetBackend attaches the translation layer that executes migrations.
func (e *Engine) SetBackend(b Backend) { e.backend = b }

// Policy returns the engine's migration policy.
func (e *Engine) Policy() Policy { return e.policy }

// PreferFast reports whether a new allocation should be placed in the
// fast tier: true while tracked fast-tier occupancy is below capacity.
// Allocators consult this for first-touch placement.
func (e *Engine) PreferFast() bool { return e.fastUsed < e.fastCap }

// fast reports whether f lies in the fast (DRAM) tier:
// e.memory.Kind(f) == mem.DRAM without the region scan.
func (e *Engine) fast(f mem.Frame) bool { return f < e.slow.Start || f >= e.slow.End() }

// state returns f's ring slot, or nil when f is untracked.
func (e *Engine) state(f mem.Frame) *frameState {
	s := e.slot.Get(f)
	if s == 0 {
		return nil
	}
	return &e.ring[s-1]
}

// Track registers a newly allocated frame with the engine. The tier is
// inferred from the frame's region kind. No-op while a migration is in
// flight (the backend reports relocations via Moved instead).
func (e *Engine) Track(f mem.Frame) {
	if e.migrating {
		return
	}
	if e.slot.Get(f) != 0 {
		panic(fmt.Sprintf("tier: frame %d tracked twice", f))
	}
	e.ring = append(e.ring, frameState{f: f})
	e.slot.Set(f, uint32(len(e.ring)))
	e.tracked++
	if e.fast(f) {
		e.fastUsed++
		gaugeMax(&telemetry.peakFast, e.fastUsed)
	} else {
		e.slowUsed++
		gaugeMax(&telemetry.peakSlow, e.slowUsed)
	}
}

// Untrack removes a freed frame from the engine, dropping any queued
// promotion of it. No-op for untracked frames and while a migration is
// in flight.
func (e *Engine) Untrack(f mem.Frame) {
	if e.migrating {
		return
	}
	s := e.slot.Get(f)
	if s == 0 {
		return
	}
	e.ring[s-1] = frameState{f: ringDead}
	e.slot.Set(f, 0)
	e.tracked--
	e.dead++
	if e.fast(f) {
		e.fastUsed--
	} else {
		e.slowUsed--
	}
	e.maybeCompact()
}

// Moved re-keys a tracked frame after the backend relocated its
// contents from old to new, carrying hotness state and occupancy
// accounting across the move. A queued promotion of old is dropped.
// Backends call it once per relocated frame inside MigrateFrame.
func (e *Engine) Moved(old, new mem.Frame) {
	s := e.slot.Get(old)
	if s == 0 {
		return // frame was never tracked (e.g. file padding); nothing follows it
	}
	if e.slot.Get(new) != 0 {
		panic(fmt.Sprintf("tier: Moved target frame %d already tracked", new))
	}
	e.slot.Set(old, 0)
	e.slot.Set(new, s)
	st := &e.ring[s-1]
	st.f = new
	st.pending = false
	oldFast := e.fast(old)
	newFast := e.fast(new)
	if oldFast != newFast {
		if newFast {
			e.fastUsed++
			e.slowUsed--
			gaugeMax(&telemetry.peakFast, e.fastUsed)
		} else {
			e.fastUsed--
			e.slowUsed++
			gaugeMax(&telemetry.peakSlow, e.slowUsed)
		}
	}
}

// Record samples an access to frame f (the access-bit feed from fault
// and touch paths). Under promote/smart, slow-tier frames become
// promotion candidates, executed at the next Pump. Sampling itself
// charges no simulated time — it piggybacks on the access that is
// already being charged.
func (e *Engine) Record(f mem.Frame, write bool) {
	st := e.state(f)
	if st == nil {
		return
	}
	st.accessed = true
	telemetry.sampledRefs.Add(1)
	if e.policy != Promote && e.policy != Smart {
		return
	}
	if e.fast(f) || st.pending {
		return
	}
	if len(e.pending) >= maxPending {
		telemetry.stalls.Add(1)
		return
	}
	st.pending = true
	e.pending = append(e.pending, f)
}

// Pump executes queued promotions. Call it at a quiescent point of the
// operation that recorded the accesses (end of fault/touch), so the
// migration cost lands in that operation's latency window — on-fault
// promotion semantics — without re-entering the backend mid-update.
func (e *Engine) Pump(cur *sim.CPU) {
	if e.backend == nil || e.migrating || len(e.pending) == 0 {
		return
	}
	work := e.pending
	e.pending = e.pending[:0]
	for _, f := range work {
		st := e.state(f)
		if st == nil || !st.pending {
			continue // untracked or already moved since queueing
		}
		st.pending = false
		if e.fast(f) {
			continue
		}
		cur.Clock().Advance(e.params.TierPolicyOp)
		if e.fastUsed >= e.fastCap {
			if e.policy != Smart {
				telemetry.stalls.Add(1)
				continue
			}
			// Smart: demote the coldest fast frame to make room, then
			// promote — a bidirectional swap.
			victim, found := e.coldestFast()
			if !found || !e.migrate(cur, victim, mem.NVM, &telemetry.demotions) {
				telemetry.stalls.Add(1)
				continue
			}
			if e.migrate(cur, f, mem.DRAM, &telemetry.promotions) {
				telemetry.swaps.Add(1)
			}
			continue
		}
		e.migrate(cur, f, mem.DRAM, &telemetry.promotions)
	}
}

// Scan advances the clock hand over up to batch tracked frames: each
// visited frame's hotness ages (hot >>= 1, access bit folded into the
// top bit) and its access bit clears, charging TierScanFrame per
// frame. Under demote/smart, when fast-tier occupancy is above the
// high-water mark the scan also demotes cold fast-tier frames until
// occupancy falls to the low-water mark or the batch is exhausted.
func (e *Engine) Scan(cur *sim.CPU, batch int) {
	if e.tracked == 0 || e.migrating {
		return
	}
	demoting := (e.policy == Demote || e.policy == Smart) && e.fastUsed > e.highWater
	var coldest mem.Frame
	coldestHot := -1
	visited := 0
	for visited < batch {
		if e.hand >= len(e.ring) {
			e.hand = 0
		}
		// Migrations below re-key ring slots but never add, remove or
		// move one (Track/Untrack are suppressed), so st stays valid.
		st := &e.ring[e.hand]
		e.hand++
		f := st.f
		if f == ringDead {
			continue
		}
		visited++
		telemetry.scans.Add(1)
		cur.Clock().Advance(e.params.TierScanFrame)
		st.hot >>= 1
		if st.accessed {
			st.hot |= 0x80
			st.accessed = false
		}
		if !demoting || !e.fast(f) {
			continue
		}
		if st.hot == 0 {
			cur.Clock().Advance(e.params.TierPolicyOp)
			e.migrate(cur, f, mem.NVM, &telemetry.demotions)
		} else if coldestHot < 0 || int(st.hot) < coldestHot {
			coldest, coldestHot = f, int(st.hot)
		}
		if e.fastUsed <= e.lowWater {
			demoting = false
		}
	}
	// Still above the high-water mark after a full batch of warm
	// frames: demote the least-hot one seen so the scanner always makes
	// progress under sustained pressure.
	if demoting && e.fastUsed > e.highWater && coldestHot >= 0 {
		if e.slot.Get(coldest) != 0 && e.fast(coldest) {
			cur.Clock().Advance(e.params.TierPolicyOp)
			e.migrate(cur, coldest, mem.NVM, &telemetry.demotions)
		}
	}
}

// migrate asks the backend to move f into the target tier and records
// telemetry. Returns whether the backend performed the migration.
func (e *Engine) migrate(cur *sim.CPU, f mem.Frame, to mem.RegionKind, counter *atomicU64) bool {
	if e.backend == nil {
		return false
	}
	e.migrating = true
	start := cur.Clock().Now()
	pages, ok := e.backend.MigrateFrame(cur, f, to)
	e.migrating = false
	if !ok {
		telemetry.stalls.Add(1)
		return false
	}
	counter.Add(1)
	telemetry.pagesMoved.Add(pages)
	if pages > 1 {
		telemetry.extentMoves.Add(1)
	}
	telemetry.migrateTime.Add(uint64(cur.Clock().Now() - start))
	return true
}

// coldestFast returns the tracked fast-tier frame with the lowest
// hotness, scanning the ring from the clock hand (deterministic order,
// first-coldest wins ties).
func (e *Engine) coldestFast() (mem.Frame, bool) {
	var best mem.Frame
	bestHot := -1
	// Clock order from the hand: [hand, n), then [0, hand).
	for _, part := range [2][]frameState{e.ring[e.hand:], e.ring[:e.hand]} {
		for i := range part {
			st := &part[i]
			if st.f == ringDead || !e.fast(st.f) {
				continue
			}
			h := int(st.hot)
			if st.accessed {
				h |= 0x100 // unscanned recent access outranks any aged history
			}
			if bestHot < 0 || h < bestHot {
				best, bestHot = st.f, h
				if h == 0 {
					return best, true
				}
			}
		}
	}
	return best, bestHot >= 0
}

// maybeCompact rebuilds the ring when over half its slots are
// tombstones, preserving clock order of the survivors and re-pointing
// their slot entries.
func (e *Engine) maybeCompact() {
	if e.dead*2 <= len(e.ring) || len(e.ring) < 64 {
		return
	}
	live := e.ring[:0]
	newHand := 0
	for i, st := range e.ring {
		if st.f == ringDead {
			continue
		}
		if i < e.hand {
			newHand++
		}
		live = append(live, st)
		e.slot.Set(st.f, uint32(len(live)))
	}
	clear(e.ring[len(live):])
	e.ring = live
	e.hand = newHand
	e.dead = 0
}

// TierOf returns the tier the engine believes f occupies and whether f
// is tracked. The checker compares this against mem.Kind to prove
// translation ↔ placement agreement after migrations.
func (e *Engine) TierOf(f mem.Frame) (mem.RegionKind, bool) {
	if e.slot.Get(f) == 0 {
		return mem.DRAM, false
	}
	return e.memory.Kind(f), true
}

// Occupancy returns the tracked frame counts per tier.
func (e *Engine) Occupancy() (fast, slow uint64) { return e.fastUsed, e.slowUsed }

// Tracked returns the number of tracked frames.
func (e *Engine) Tracked() int { return e.tracked }

// CheckInvariants audits the engine's accounting:
//   - per-tier occupancy counters match a recount over tracked frames
//   - no frame is in two tiers (each tracked frame maps to exactly one
//     region kind; the slot table structurally prevents double
//     entries, the recount proves the counters agree with placement)
//   - the slot table and the live ring slots are a bijection, and the
//     tracked and tombstone counts match the ring
//   - only live slots are queued for promotion
func (e *Engine) CheckInvariants() error {
	var fast, slow uint64
	entries := 0
	var err error
	e.slot.Visit(func(f mem.Frame, s uint32) bool {
		if int(s) > len(e.ring) || e.ring[s-1].f != f {
			err = fmt.Errorf("tier: frame %d ring slot %d does not point back", f, int(s)-1)
			return false
		}
		entries++
		if e.memory.Kind(f) == mem.DRAM {
			fast++
		} else {
			slow++
		}
		return true
	})
	if err != nil {
		return err
	}
	if fast != e.fastUsed || slow != e.slowUsed {
		return fmt.Errorf("tier: occupancy counters fast=%d slow=%d, recount fast=%d slow=%d",
			e.fastUsed, e.slowUsed, fast, slow)
	}
	live, dead := 0, 0
	for i, st := range e.ring {
		if st.f == ringDead {
			if st != (frameState{f: ringDead}) {
				return fmt.Errorf("tier: tombstone at ring slot %d keeps state %+v", i, st)
			}
			dead++
			continue
		}
		live++
		if s := e.slot.Get(st.f); int(s) != i+1 {
			return fmt.Errorf("tier: ring frame %d at slot %d, slot table says %d", st.f, i, int(s)-1)
		}
	}
	if live != entries || live != e.tracked || dead != e.dead {
		return fmt.Errorf("tier: ring has %d live and %d dead slots; slot table %d entries, counts tracked=%d dead=%d",
			live, dead, entries, e.tracked, e.dead)
	}
	return nil
}
