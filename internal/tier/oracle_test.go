package tier

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// refEngine is the map-based engine the frame table replaced: tracked
// frames in a map of heap-allocated states, queued promotions in a
// second map. It survives only as the oracle below, so its code is the
// old code with the global telemetry reduced to a per-engine Telemetry
// (peak gauges left out: they are process-wide high-water marks).
type refEngine struct {
	params  *sim.Params
	memory  *mem.Memory
	policy  Policy
	backend Backend

	fastCap   uint64
	highWater uint64
	lowWater  uint64

	frames map[mem.Frame]*refState
	ring   []mem.Frame
	dead   int
	hand   int

	fastUsed uint64
	slowUsed uint64

	pending    []mem.Frame
	pendingSet map[mem.Frame]struct{}

	migrating bool

	tel Telemetry
}

type refState struct {
	idx      int
	hot      uint8
	accessed bool
}

func newRefEngine(params *sim.Params, m *mem.Memory, policy Policy, fastCap uint64) *refEngine {
	e := &refEngine{
		params:     params,
		memory:     m,
		policy:     policy,
		fastCap:    fastCap,
		frames:     make(map[mem.Frame]*refState),
		pendingSet: make(map[mem.Frame]struct{}),
	}
	e.highWater = fastCap - fastCap/8
	e.lowWater = fastCap - fastCap/4
	if e.lowWater == 0 {
		e.lowWater = 1
	}
	return e
}

func (e *refEngine) PreferFast() bool { return e.fastUsed < e.fastCap }

func (e *refEngine) Track(f mem.Frame) {
	if e.migrating {
		return
	}
	if _, dup := e.frames[f]; dup {
		panic(fmt.Sprintf("tier: frame %d tracked twice", f))
	}
	st := &refState{idx: len(e.ring)}
	e.ring = append(e.ring, f)
	e.frames[f] = st
	if e.memory.Kind(f) == mem.DRAM {
		e.fastUsed++
	} else {
		e.slowUsed++
	}
}

func (e *refEngine) Untrack(f mem.Frame) {
	if e.migrating {
		return
	}
	st, ok := e.frames[f]
	if !ok {
		return
	}
	e.ring[st.idx] = ringDead
	e.dead++
	delete(e.frames, f)
	delete(e.pendingSet, f)
	if e.memory.Kind(f) == mem.DRAM {
		e.fastUsed--
	} else {
		e.slowUsed--
	}
	e.maybeCompact()
}

func (e *refEngine) Moved(old, new mem.Frame) {
	st, ok := e.frames[old]
	if !ok {
		return
	}
	if _, dup := e.frames[new]; dup {
		panic(fmt.Sprintf("tier: Moved target frame %d already tracked", new))
	}
	delete(e.frames, old)
	e.frames[new] = st
	e.ring[st.idx] = new
	delete(e.pendingSet, old)
	oldFast := e.memory.Kind(old) == mem.DRAM
	newFast := e.memory.Kind(new) == mem.DRAM
	if oldFast != newFast {
		if newFast {
			e.fastUsed++
			e.slowUsed--
		} else {
			e.fastUsed--
			e.slowUsed++
		}
	}
}

func (e *refEngine) Record(f mem.Frame, write bool) {
	st, ok := e.frames[f]
	if !ok {
		return
	}
	st.accessed = true
	e.tel.SampledRefs++
	if e.policy != Promote && e.policy != Smart {
		return
	}
	if e.memory.Kind(f) == mem.DRAM {
		return
	}
	if _, qd := e.pendingSet[f]; qd {
		return
	}
	if len(e.pending) >= maxPending {
		e.tel.Stalls++
		return
	}
	e.pendingSet[f] = struct{}{}
	e.pending = append(e.pending, f)
}

func (e *refEngine) Pump(cur *sim.CPU) {
	if e.backend == nil || e.migrating || len(e.pending) == 0 {
		return
	}
	work := e.pending
	e.pending = e.pending[:0]
	for _, f := range work {
		if _, qd := e.pendingSet[f]; !qd {
			continue
		}
		delete(e.pendingSet, f)
		if _, ok := e.frames[f]; !ok || e.memory.Kind(f) == mem.DRAM {
			continue
		}
		cur.Clock().Advance(e.params.TierPolicyOp)
		if e.fastUsed >= e.fastCap {
			if e.policy != Smart {
				e.tel.Stalls++
				continue
			}
			victim, found := e.coldestFast()
			if !found || !e.migrate(cur, victim, mem.NVM, &e.tel.Demotions) {
				e.tel.Stalls++
				continue
			}
			if e.migrate(cur, f, mem.DRAM, &e.tel.Promotions) {
				e.tel.Swaps++
			}
			continue
		}
		e.migrate(cur, f, mem.DRAM, &e.tel.Promotions)
	}
}

func (e *refEngine) Scan(cur *sim.CPU, batch int) {
	if len(e.frames) == 0 || e.migrating {
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
		f := e.ring[e.hand]
		e.hand++
		if f == ringDead {
			continue
		}
		st := e.frames[f]
		visited++
		e.tel.Scans++
		cur.Clock().Advance(e.params.TierScanFrame)
		st.hot >>= 1
		if st.accessed {
			st.hot |= 0x80
			st.accessed = false
		}
		if !demoting || e.memory.Kind(f) != mem.DRAM {
			continue
		}
		if st.hot == 0 {
			cur.Clock().Advance(e.params.TierPolicyOp)
			e.migrate(cur, f, mem.NVM, &e.tel.Demotions)
		} else if coldestHot < 0 || int(st.hot) < coldestHot {
			coldest, coldestHot = f, int(st.hot)
		}
		if e.fastUsed <= e.lowWater {
			demoting = false
		}
	}
	if demoting && e.fastUsed > e.highWater && coldestHot >= 0 {
		if _, ok := e.frames[coldest]; ok && e.memory.Kind(coldest) == mem.DRAM {
			cur.Clock().Advance(e.params.TierPolicyOp)
			e.migrate(cur, coldest, mem.NVM, &e.tel.Demotions)
		}
	}
}

func (e *refEngine) migrate(cur *sim.CPU, f mem.Frame, to mem.RegionKind, counter *uint64) bool {
	if e.backend == nil {
		return false
	}
	e.migrating = true
	start := cur.Clock().Now()
	pages, ok := e.backend.MigrateFrame(cur, f, to)
	e.migrating = false
	if !ok {
		e.tel.Stalls++
		return false
	}
	*counter++
	e.tel.PagesMoved += pages
	if pages > 1 {
		e.tel.ExtentMoves++
	}
	e.tel.MigrateTime += uint64(cur.Clock().Now() - start)
	return true
}

func (e *refEngine) coldestFast() (mem.Frame, bool) {
	var best mem.Frame
	bestHot := -1
	n := len(e.ring)
	for i := 0; i < n; i++ {
		f := e.ring[(e.hand+i)%n]
		if f == ringDead {
			continue
		}
		if e.memory.Kind(f) != mem.DRAM {
			continue
		}
		st := e.frames[f]
		h := int(st.hot)
		if st.accessed {
			h |= 0x100
		}
		if bestHot < 0 || h < bestHot {
			best, bestHot = f, h
			if h == 0 {
				break
			}
		}
	}
	return best, bestHot >= 0
}

func (e *refEngine) maybeCompact() {
	if e.dead*2 <= len(e.ring) || len(e.ring) < 64 {
		return
	}
	live := e.ring[:0]
	newHand := 0
	for i, f := range e.ring {
		if f == ringDead {
			continue
		}
		if i < e.hand {
			newHand++
		}
		e.frames[f].idx = len(live)
		live = append(live, f)
	}
	e.ring = live
	e.hand = newHand
	e.dead = 0
}

func (e *refEngine) TierOf(f mem.Frame) (mem.RegionKind, bool) {
	if _, ok := e.frames[f]; !ok {
		return mem.DRAM, false
	}
	return e.memory.Kind(f), true
}

// oracleBackend relocates frames through per-tier free stacks (so
// freed and moved-away frames are reused at once), declines some
// migrations and moves some as two-frame extents. Every decision comes
// from its own seeded stream, so two instances fed identical call
// sequences stay identical; the log records each call in order.
type oracleBackend struct {
	moved  func(old, new mem.Frame)
	memory *mem.Memory
	rng    *sim.RNG
	free   [2][]mem.Frame // by tier: 0 fast, 1 slow
	live   []mem.Frame    // frames the driver holds, in a stable order
	at     map[mem.Frame]int
	log    []string
}

func tierIndex(k mem.RegionKind) int {
	if k == mem.DRAM {
		return 0
	}
	return 1
}

func newOracleBackend(m *mem.Memory, seed uint64, fast, slow int) *oracleBackend {
	b := &oracleBackend{memory: m, rng: sim.NewRNG(seed), at: make(map[mem.Frame]int)}
	for f := fast - 1; f >= 0; f-- {
		b.free[0] = append(b.free[0], mem.Frame(f))
	}
	for f := fast + slow - 1; f >= fast; f-- {
		b.free[1] = append(b.free[1], mem.Frame(f))
	}
	return b
}

// alloc pops a free frame of the given tier, or of the other one when
// that is empty.
func (b *oracleBackend) alloc(tier int) (mem.Frame, bool) {
	for _, t := range []int{tier, 1 - tier} {
		if n := len(b.free[t]); n > 0 {
			f := b.free[t][n-1]
			b.free[t] = b.free[t][:n-1]
			b.at[f] = len(b.live)
			b.live = append(b.live, f)
			return f, true
		}
	}
	return 0, false
}

func (b *oracleBackend) release(f mem.Frame) {
	i := b.at[f]
	last := b.live[len(b.live)-1]
	b.live[i] = last
	b.at[last] = i
	b.live = b.live[:len(b.live)-1]
	delete(b.at, f)
	k := tierIndex(b.memory.Kind(f))
	b.free[k] = append(b.free[k], f)
}

// relocate moves live frame f to nf (already popped from a free stack)
// and reports the move.
func (b *oracleBackend) relocate(f, nf mem.Frame) {
	i := b.at[f]
	b.live[i] = nf
	b.at[nf] = i
	delete(b.at, f)
	k := tierIndex(b.memory.Kind(f))
	b.free[k] = append(b.free[k], f)
	b.moved(f, nf)
}

func (b *oracleBackend) MigrateFrame(cur *sim.CPU, f mem.Frame, to mem.RegionKind) (uint64, bool) {
	_, live := b.at[f]
	n := 1
	if next, ok := b.at[f+1]; ok && b.rng.Intn(4) == 0 && b.memory.Kind(b.live[next]) == b.memory.Kind(f) {
		n = 2
	}
	t := tierIndex(to)
	if !live || b.rng.Intn(8) == 0 || len(b.free[t]) < n {
		b.log = append(b.log, fmt.Sprintf("decline %d->%v", f, to))
		return 0, false
	}
	for i := 0; i < n; i++ {
		nf := b.free[t][len(b.free[t])-1]
		b.free[t] = b.free[t][:len(b.free[t])-1]
		b.relocate(f+mem.Frame(i), nf)
		b.log = append(b.log, fmt.Sprintf("move %d->%d", f+mem.Frame(i), nf))
	}
	cur.Clock().Advance(sim.Time(100 * n))
	return uint64(n), true
}

// oracleRig is one engine (new or reference) with its own machine,
// memory and backend.
type oracleRig struct {
	cpu *sim.CPU
	mem *mem.Memory
	b   *oracleBackend
}

const oracleFast, oracleSlow = 128, 512

func newOracleRig(t *testing.T, seed uint64) oracleRig {
	t.Helper()
	params := sim.DefaultParams()
	machine := sim.NewMachine(&params, 1, 1)
	memory, err := mem.New(machine.Clock(), &params, mem.Config{DRAMFrames: oracleFast, NVMFrames: oracleSlow})
	if err != nil {
		t.Fatal(err)
	}
	return oracleRig{cpu: machine.CPU(0), mem: memory, b: newOracleBackend(memory, seed, oracleFast, oracleSlow)}
}

// withoutPeaks drops the process-wide peak gauges from a telemetry
// delta.
func withoutPeaks(t Telemetry) Telemetry {
	t.PeakFast, t.PeakSlow = 0, 0
	return t
}

// TestMatchesMapOracle drives the frame-table engine and the map-based
// oracle through the same seeded sequences of Track, Untrack, Moved,
// Record, Pump and Scan under every policy, and requires identical
// migration calls in order (Smart's victims included), Occupancy,
// Tracked, TierOf over all of memory, telemetry and simulated time
// after every step.
func TestMatchesMapOracle(t *testing.T) {
	params := sim.DefaultParams()
	for seed := uint64(1); seed <= 48; seed++ {
		rng := sim.NewRNG(seed)
		policy := Policies[seed%4]
		fastCap := []uint64{8, 40, 100, 200}[(seed/4)%4]
		a, r := newOracleRig(t, seed), newOracleRig(t, seed)
		eng, err := New(&params, a.mem, policy, fastCap)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefEngine(&params, r.mem, policy, fastCap)
		a.b.moved, r.b.moved = eng.Moved, ref.Moved
		eng.SetBackend(a.b)
		ref.backend = r.b
		before := TelemetrySnapshot()
		for step := 0; step < 800; step++ {
			op := rng.Intn(10)
			switch op {
			case 0, 1, 2: // allocate; one in eight stays untracked
				if eng.PreferFast() != ref.PreferFast() {
					t.Fatalf("seed %d step %d: PreferFast %v, oracle %v", seed, step, eng.PreferFast(), ref.PreferFast())
				}
				tier := 1
				if eng.PreferFast() {
					tier = 0
				}
				f, ok := a.b.alloc(tier)
				if rf, rok := r.b.alloc(tier); rf != f || rok != ok {
					t.Fatalf("seed %d step %d: backends diverged on alloc", seed, step)
				}
				if ok && rng.Intn(8) != 0 {
					eng.Track(f)
					ref.Track(f)
				}
			case 3: // free
				if len(a.b.live) == 0 {
					continue
				}
				f := a.b.live[rng.Intn(len(a.b.live))]
				eng.Untrack(f)
				ref.Untrack(f)
				a.b.release(f)
				r.b.release(f)
			case 4, 5: // access a held frame, or sometimes any frame
				f := mem.Frame(rng.Intn(oracleFast + oracleSlow))
				if len(a.b.live) > 0 && rng.Intn(8) != 0 {
					f = a.b.live[rng.Intn(len(a.b.live))]
				}
				w := rng.Intn(2) == 0
				eng.Record(f, w)
				ref.Record(f, w)
			case 6:
				eng.Pump(a.cpu)
				ref.Pump(r.cpu)
			case 7:
				batch := 1 + rng.Intn(48)
				eng.Scan(a.cpu, batch)
				ref.Scan(r.cpu, batch)
			default: // a backend-initiated move outside the engine's own migrations
				if len(a.b.live) == 0 {
					continue
				}
				f := a.b.live[rng.Intn(len(a.b.live))]
				tier := rng.Intn(2)
				if len(a.b.free[tier]) == 0 {
					continue
				}
				nf := a.b.free[tier][len(a.b.free[tier])-1]
				for _, b := range []*oracleBackend{a.b, r.b} {
					b.free[tier] = b.free[tier][:len(b.free[tier])-1]
					b.relocate(f, nf)
				}
			}
			if err := compareWithRef(eng, ref, a, r, before); err != nil {
				t.Fatalf("seed %d (%v, cap %d) step %d op %d: %v", seed, policy, fastCap, step, op, err)
			}
			if err := eng.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d op %d: %v", seed, step, op, err)
			}
		}
	}
}

func compareWithRef(eng *Engine, ref *refEngine, a, r oracleRig, before Telemetry) error {
	if !slices.Equal(a.b.log, r.b.log) {
		return fmt.Errorf("migrations %v, oracle %v", a.b.log, r.b.log)
	}
	if !slices.Equal(a.b.live, r.b.live) {
		return fmt.Errorf("held frames %v, oracle %v", a.b.live, r.b.live)
	}
	if f, s := eng.Occupancy(); f != ref.fastUsed || s != ref.slowUsed {
		return fmt.Errorf("occupancy (%d, %d), oracle (%d, %d)", f, s, ref.fastUsed, ref.slowUsed)
	}
	if eng.Tracked() != len(ref.frames) {
		return fmt.Errorf("Tracked %d, oracle %d", eng.Tracked(), len(ref.frames))
	}
	for f := mem.Frame(0); f < oracleFast+oracleSlow; f++ {
		k, ok := eng.TierOf(f)
		rk, rok := ref.TierOf(f)
		if k != rk || ok != rok {
			return fmt.Errorf("TierOf(%d) = (%v, %v), oracle (%v, %v)", f, k, ok, rk, rok)
		}
	}
	if got := withoutPeaks(TelemetrySnapshot().Sub(before)); got != ref.tel {
		return fmt.Errorf("telemetry %+v, oracle %+v", got, ref.tel)
	}
	if a.cpu.Clock().Now() != r.cpu.Clock().Now() {
		return fmt.Errorf("clock %d, oracle %d", a.cpu.Clock().Now(), r.cpu.Clock().Now())
	}
	return nil
}

// TestSteadyStateAllocatesNothing pins the per-frame paths at zero
// host allocations once the slot table and the ring have grown to the
// working set.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	eng, _, _ := newTestRig(t, Smart, 64)
	cycle := func() {
		for i := uint64(0); i < 64; i++ {
			f, g := mem.Frame(i), slowFrame(i)
			eng.Track(f)
			eng.Moved(f, g)
			eng.Untrack(g)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("Track/Moved/Untrack cycle allocates %v times, want 0", n)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkEngineMoved measures one Moved of a tracked frame between
// the tiers: the per-frame cost a backend pays for each relocated page.
func BenchmarkEngineMoved(b *testing.B) {
	params := sim.DefaultParams()
	machine := sim.NewMachine(&params, 1, 1)
	memory, err := mem.New(machine.Clock(), &params, mem.Config{DRAMFrames: 1 << 12, NVMFrames: 1 << 14})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := New(&params, memory, None, 1<<12)
	if err != nil {
		b.Fatal(err)
	}
	const n = 1 << 10
	for i := mem.Frame(0); i < n; i++ {
		eng.Track(i)
	}
	for i := mem.Frame(0); i < n; i++ { // allocate the slow side's table levels
		eng.Moved(i, 1<<12+i)
		eng.Moved(1<<12+i, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := mem.Frame(i % n)
		if (i/n)%2 == 0 {
			eng.Moved(f, 1<<12+f)
		} else {
			eng.Moved(1<<12+f, f)
		}
	}
}
