// Package sim provides the deterministic simulation substrate shared by
// every subsystem in the repository: a virtual nanosecond clock, the
// calibrated cost-parameter table, and a reproducible random number
// generator.
//
// All memory-management experiments in this repository report *virtual*
// time. Each simulated operation (a page-table entry write, a TLB probe,
// a buddy-allocator split, ...) advances a Clock by a documented constant
// from Params. This makes every benchmark deterministic and lets tests
// assert complexity properties exactly: an O(1) operation advances the
// clock by the same amount regardless of operand size, while an O(n)
// operation advances it linearly.
package sim

import (
	"encoding/json"
	"fmt"
	"io"
)

// Time is a point in (or duration of) virtual time, in nanoseconds.
type Time int64

// Common durations.
const (
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// String formats a Time using the most natural unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Microseconds returns t expressed in fractional microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Clock is a virtual clock. The zero value is a free-standing clock at
// time zero, ready to use — the pre-SMP single-CPU model, still used by
// subsystem unit tests. Clocks owned by a Machine come in two flavours:
// each CPU has its own clock, and the machine's kernel clock forwards
// every operation to the clock of the CPU currently executing (see
// Machine.SetCurrent), so shared subsystems written against a single
// *Clock charge whichever CPU is driving them. Clock is not safe for
// concurrent use; the simulation is single-threaded by design.
type Clock struct {
	now  Time
	mach *Machine // non-nil for machine-owned clocks
	id   int      // owning CPU id for machine-owned clocks
	fwd  bool     // kernel clock: operate on the current CPU's clock
}

// self resolves forwarding: the kernel clock of a Machine delegates to
// the clock of the CPU currently executing. During a parallel phase's
// free-running window there is no current CPU, so a forwarding charge
// would silently land on an arbitrary clock; the guard turns that
// nondeterminism into a loud failure (charge the executing CPU's own
// clock, or wrap the operation in a machine-wide Machine.OrderedDomain).
func (c *Clock) self() *Clock {
	if c.fwd {
		c.mach.mustNotFreePhase("forwarding kernel clock")
		return c.mach.cur.clock
	}
	return c
}

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.self().now }

// Advance moves the clock forward by d. Negative advances are a
// programming error and panic.
func (c *Clock) Advance(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative clock advance %d", d))
	}
	s := c.self()
	s.now += d
	s.publish()
}

// AdvanceTo moves the clock forward to time t if t is in the future;
// earlier times are a no-op. This is the Lamport-style merge used when
// CPUs synchronize (IPI delivery, ack waits).
func (c *Clock) AdvanceTo(t Time) {
	s := c.self()
	if t > s.now {
		s.now = t
		s.publish()
	}
}

// publish exposes the clock value to the parallel-phase gate. During a
// host-parallel phase every CPU's current time is mirrored into an
// atomic slot, so the sync-domain gate can lower-bound the next sync
// key of a CPU that is still free-running without stopping it
// (parallel.go). In serial mode the gate never reads an executing
// CPU's slot (the one run slot is taken while it executes), so outside
// a host-parallel phase a charge costs a plain load and an add;
// phase.pubPast turns a read of an unpublished slot into a phase error.
func (c *Clock) publish() {
	if c.mach != nil && c.mach.publishing {
		c.mach.pubs[c.id].t.Store(int64(c.now))
	}
}

// Since returns the virtual time elapsed since start. A start later
// than now is a programming error (a clock can never run backwards)
// and panics, mirroring the Advance guard.
func (c *Clock) Since(start Time) Time {
	now := c.self().now
	if start > now {
		panic(fmt.Sprintf("sim: Since start %d is after now %d", start, now))
	}
	return now - start
}

// Machine returns the machine that owns this clock, or nil for a
// free-standing clock that has not been adopted by MachineOf yet.
// Callers that measure elapsed time across operations which may switch
// the executing CPU should use Machine().Time() rather than Now().
func (c *Clock) Machine() *Machine { return c.mach }

// Params is the calibrated cost table. Every simulated micro-operation
// charges exactly one (or a small documented combination) of these
// constants. The defaults are calibrated against the anchors in the
// paper (see DESIGN.md §5): an un-populated mmap costs ≈8µs, demand
// faulting is ≈50× more expensive per page than touching a
// pre-populated mapping, and PMFS file allocation tracks anonymous
// memory within a few percent.
//
// Experiments that assert complexity *shape* (constant vs linear) hold
// for any strictly positive values.
type Params struct {
	// SyscallOverhead is the fixed user/kernel transition cost charged
	// once per system call (mmap, munmap, read, open, ...).
	SyscallOverhead Time

	// FaultOverhead is the trap + handler dispatch + return cost charged
	// for every page fault, on top of the work the handler performs.
	// This is the dominant term that makes demand paging expensive.
	FaultOverhead Time

	// MmapFixed is the fixed per-mapping-call cost beyond the raw
	// user/kernel transition: fd and permission checks, locking,
	// accounting. Charged by every map operation on either backend;
	// calibrated so an un-populated tmpfs mmap lands near the paper's
	// ≈8 µs anchor.
	MmapFixed Time

	// PTEWrite is the cost of writing one page-table entry.
	PTEWrite Time

	// PTNodeAlloc is the cost of allocating and initializing one
	// page-table node (one 4 KiB frame holding 512 entries), beyond the
	// underlying frame allocation.
	PTNodeAlloc Time

	// WalkLevelRef is the memory-reference cost per page-table level
	// during a hardware walk. Upper levels usually hit the paging
	// structure caches, so this is far below a DRAM reference.
	WalkLevelRef Time

	// MemRef is the cost of one cache-missing memory data reference.
	MemRef Time

	// NVMReadPenalty and NVMWritePenalty are added to MemRef when the
	// reference targets a frame in an NVM region.
	NVMReadPenalty  Time
	NVMWritePenalty Time

	// TLBHit is the lookup cost on a TLB hit; TLBMiss is the additional
	// probe cost on a miss (before the walk begins).
	TLBHit  Time
	TLBMiss Time

	// TLBShootdown is retained for cost-table compatibility: it was the
	// flat stand-in charge for notifying other cores before shootdowns
	// were modeled as real IPIs (IPISend/IPIReceive below). Nothing
	// charges it anymore. TLBFlushEntry is the local single-entry
	// invalidation cost (one INVLPG).
	TLBShootdown  Time
	TLBFlushEntry Time

	// TLBFullFlush is the flat cost of discarding the whole TLB (a CR3
	// write). It is deliberately not per-entry: hardware drops every
	// entry in one operation, the cost shows up later as refill misses.
	TLBFullFlush Time

	// IPISend is the initiating CPU's cost per shootdown target: APIC
	// register writes plus the wait contribution folded into the
	// Lamport merge with the target clocks. IPIReceive is each target's
	// interrupt entry/exit cost, paid before the requested invalidation
	// work. Together they replace the old flat TLBShootdown /
	// IPIBroadcast stand-ins; IPISend+IPIReceive+TLBFlushEntry ≈ the
	// old TLBShootdown value, so single-target costs stay calibrated.
	IPISend    Time
	IPIReceive Time

	// ShootdownQueueOp is the bookkeeping cost of adding one page to a
	// CPU's deferred-invalidation batch (the mmu_gather analogue of
	// Linux's batched TLB flush): recording the VA range and growing
	// the pending set. A whole unmap burst then pays one range flush
	// and one IPI round instead of a per-page shootdown.
	ShootdownQueueOp Time

	// RangeTLBHit is the lookup cost in the range TLB; RangeTableOp is
	// the cost of one range-table insert/remove/lookup step.
	RangeTLBHit  Time
	RangeTableOp Time

	// BuddyOp is the cost of one buddy-allocator list operation
	// (split, coalesce, push, pop).
	BuddyOp Time

	// SlabOp is the cost of one slab-cache alloc/free fast path.
	SlabOp Time

	// ZeroPage is the cost of zeroing one 4 KiB frame eagerly.
	ZeroPage Time

	// ZeroEpoch is the cost of an O(1) epoch-based bulk erase.
	ZeroEpoch Time

	// ExtentOp is the cost of one extent-tree operation (lookup,
	// insert, split) in the file system.
	ExtentOp Time

	// BitmapOp is the cost of one block-bitmap scan step.
	BitmapOp Time

	// InodeOp is the cost of one inode create/lookup/update.
	InodeOp Time

	// DirOp is the cost of one directory entry operation.
	DirOp Time

	// PageCacheLookup is the cost of one radix lookup in a per-file
	// page cache (tmpfs page lookup during populate or fault).
	PageCacheLookup Time

	// PageMetaOp is the cost of updating one struct-page analogue
	// (flags, LRU links, refcount) in the baseline VM.
	PageMetaOp Time

	// VMAOp is the cost of one VMA tree operation (find, insert,
	// merge check, remove).
	VMAOp Time

	// SwapPageIO is the cost of writing or reading one page to the
	// swap device (a major fault's dominant term).
	SwapPageIO Time

	// JournalAppend is the cost of persisting one metadata journal
	// record to NVM: an NVM-class store (MemRef + NVMWritePenalty)
	// plus the write-ahead ordering overhead (fence/flush). Charged
	// once per record by the persistence layer's modelled journal.
	JournalAppend Time

	// ReadPerByte is the marginal per-byte cost of a read()-style
	// kernel copy (charged in addition to SyscallOverhead).
	ReadPerByte Time

	// TierScanFrame is the cost of one clock-hand hotness-scanner
	// visit: read and age one frame's access bit (a page-struct
	// read/modify/write, same order as PageMetaOp).
	TierScanFrame Time

	// TierPolicyOp is the cost of one tier-migration policy decision:
	// consult occupancy, pick a candidate, enqueue the move. Charged
	// per decision, separate from the copy/remap costs the migration
	// itself accrues through the normal machinery.
	TierPolicyOp Time

	// UQueueOp is the user-side cost of posting or reaping one request
	// on the user↔kernel shared-memory grant queue (a few cache-line
	// writes and a doorbell read — no privilege transition). Every
	// usermode fault, grant refill, revocation, and pin is two of
	// these: one submit, one completion reap.
	UQueueOp Time

	// GrantInstall is the kernel-side cost of installing or revoking
	// one physical extent in a process's grant table (capability-table
	// update plus accounting).
	GrantInstall Time

	// UserAllocOp is the cost of one user-level allocator step over
	// granted extents: a free-run list operation or the software bounds
	// check a no-virtual-memory process performs instead of a hardware
	// walk.
	UserAllocOp Time

	// IPIBroadcast is retained for cost-table compatibility: it was the
	// flat broadcast-shootdown stand-in used before per-CPU clocks.
	// Nothing charges it anymore; broadcasts now cost IPISend per
	// target on the sender plus IPIReceive per target.
	IPIBroadcast Time
}

// DefaultParams returns the calibrated default cost table.
func DefaultParams() Params {
	return Params{
		SyscallOverhead:  450,
		FaultOverhead:    2200,
		MmapFixed:        7000,
		PTEWrite:         15,
		PTNodeAlloc:      120,
		WalkLevelRef:     10,
		MemRef:           5,
		NVMReadPenalty:   50,
		NVMWritePenalty:  150,
		TLBHit:           1,
		TLBMiss:          4,
		TLBShootdown:     1500,
		TLBFlushEntry:    40,
		TLBFullFlush:     500,
		IPISend:          800,
		IPIReceive:       600,
		ShootdownQueueOp: 5,
		RangeTLBHit:      2,
		RangeTableOp:     60,
		BuddyOp:          40,
		SlabOp:           25,
		ZeroPage:         250,
		ZeroEpoch:        90,
		ExtentOp:         150,
		BitmapOp:         20,
		InodeOp:          350,
		DirOp:            120,
		PageCacheLookup:  80,
		PageMetaOp:       12,
		VMAOp:            180,
		SwapPageIO:       25000,
		JournalAppend:    200,
		ReadPerByte:      0, // bulk copy cost charged via ReadPerPage below
		TierScanFrame:    12,
		TierPolicyOp:     20,
		UQueueOp:         30,
		GrantInstall:     90,
		UserAllocOp:      15,
		IPIBroadcast:     2000,
	}
}

// ReadPerPage is the kernel bulk-copy cost for one 4 KiB page moved by
// read()/write() style calls. Kept as a method so the copy cost scales
// with MemRef if a caller tunes the table.
func (p *Params) ReadPerPage() Time { return 35 * p.MemRef }

// Validate reports an error if any cost is non-positive where the
// simulator requires strictly positive values.
func (p *Params) Validate() error {
	checks := []struct {
		name string
		v    Time
	}{
		{"SyscallOverhead", p.SyscallOverhead},
		{"FaultOverhead", p.FaultOverhead},
		{"MmapFixed", p.MmapFixed},
		{"PTEWrite", p.PTEWrite},
		{"PTNodeAlloc", p.PTNodeAlloc},
		{"WalkLevelRef", p.WalkLevelRef},
		{"MemRef", p.MemRef},
		{"TLBHit", p.TLBHit},
		{"TLBMiss", p.TLBMiss},
		{"BuddyOp", p.BuddyOp},
		{"SlabOp", p.SlabOp},
		{"ZeroPage", p.ZeroPage},
		{"ZeroEpoch", p.ZeroEpoch},
		{"ExtentOp", p.ExtentOp},
		{"InodeOp", p.InodeOp},
		{"VMAOp", p.VMAOp},
		{"RangeTableOp", p.RangeTableOp},
		{"TLBFullFlush", p.TLBFullFlush},
		{"IPISend", p.IPISend},
		{"IPIReceive", p.IPIReceive},
		{"ShootdownQueueOp", p.ShootdownQueueOp},
		{"JournalAppend", p.JournalAppend},
		{"TierScanFrame", p.TierScanFrame},
		{"TierPolicyOp", p.TierPolicyOp},
		{"UQueueOp", p.UQueueOp},
		{"GrantInstall", p.GrantInstall},
		{"UserAllocOp", p.UserAllocOp},
	}
	for _, c := range checks {
		if c.v <= 0 {
			return fmt.Errorf("sim: parameter %s must be positive, got %d", c.name, c.v)
		}
	}
	return nil
}

// RNG is a deterministic xorshift64* pseudo-random number generator.
// It is reproducible across runs and platforms, which keeps every
// experiment's workload identical between executions.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed (zero is remapped to a
// fixed non-zero constant, as xorshift has an all-zero fixed point).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a pseudo-random uint64 in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n called with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// MarshalParams encodes a cost table as indented JSON — the format
// accepted by LoadParams and by cmd/o1bench's -params flag.
func MarshalParams(p *Params) ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// LoadParams reads a JSON cost table (as produced by MarshalParams).
// Missing fields keep their default values; the result is validated.
func LoadParams(r io.Reader) (Params, error) {
	p := DefaultParams()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Params{}, fmt.Errorf("sim: loading params: %w", err)
	}
	if err := p.Validate(); err != nil {
		return Params{}, err
	}
	return p, nil
}
