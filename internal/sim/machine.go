package sim

import (
	"fmt"
	"sync/atomic"

	"repro/internal/metrics"
)

// CPU is one simulated processor: an execution context with its own
// virtual clock, its own deterministic random stream, and its own event
// counters. Every translation, fault, and map/unmap in the simulator is
// charged to the CPU that performed it.
type CPU struct {
	id    int
	mach  *Machine
	clock *Clock
	rng   *RNG
	stats *metrics.Set
	// ipiLog holds the deliveries this CPU received, once the machine's
	// IPI log is enabled (see Machine.EnableIPILog).
	ipiLog []IPIDelivery
}

// ID returns the CPU number, 0..NumCPUs-1.
func (c *CPU) ID() int { return c.id }

// Machine returns the machine this CPU belongs to.
func (c *CPU) Machine() *Machine { return c.mach }

// Clock returns this CPU's own (non-forwarding) clock.
func (c *CPU) Clock() *Clock { return c.clock }

// RNG returns this CPU's deterministic random stream. Streams of
// distinct CPUs are decorrelated by seeding.
func (c *CPU) RNG() *RNG { return c.rng }

// Stats exposes per-CPU event counters: "ipis_sent", "ipis_received".
func (c *CPU) Stats() *metrics.Set { return c.stats }

// Now returns this CPU's current virtual time.
func (c *CPU) Now() Time { return c.clock.Now() }

// Advance moves this CPU's clock forward by d.
func (c *CPU) Advance(d Time) { c.clock.Advance(d) }

// AdvanceTo moves this CPU's clock forward to t if t is in the future.
func (c *CPU) AdvanceTo(t Time) { c.clock.AdvanceTo(t) }

// Machine is an N-CPU simulated machine. CPU clocks advance
// independently as work is charged to them and only synchronize at
// explicit communication points (IPI delivery and acknowledgement),
// giving a deterministic Lamport-style partial order of events.
//
// Outside a parallel phase the simulation is single-threaded: at any
// moment exactly one CPU is "executing" (the current CPU), and the
// machine's kernel clock — Clock() — forwards charges to it. Subsystems
// that predate the multi-core refactor keep their single *sim.Clock and
// transparently charge the right CPU. Machine.RunParallel additionally
// runs every CPU's context on host goroutines under a conservative
// synchronization protocol that keeps cross-CPU event order a pure
// function of virtual time (see parallel.go and DESIGN.md §11).
type Machine struct {
	params   *Params
	cpus     []*CPU
	cur      *CPU
	kclock   *Clock
	checks   []invariantCheck
	statSets []statsEntry

	// Host-parallel phase state (see parallel.go). phaseFlag and
	// exclFlag are atomics so the cheap guards in Clock.self,
	// Current, and SetCurrent can read them from any CPU goroutine;
	// exclFlag's value is stable for every possible reader because a
	// machine-wide section is granted only with every other CPU
	// parked. pubs mirrors each CPU's clock so the sync-domain gate
	// can lower-bound free-running CPUs without stopping them; each
	// slot has its own cache line, because in a host-parallel phase
	// every charge stores to it. publishing is true only while a phase
	// with more than one run slot is active: only then can the gate
	// read the slot of an executing CPU (DESIGN.md §11). It is a plain
	// bool, written before RunParallel starts the task goroutines and
	// after they have all returned, so goroutine start and the
	// WaitGroup order every read.
	hostpar    bool
	phase      *phase
	phaseFlag  atomic.Bool
	exclFlag   atomic.Bool
	publishing bool
	pubs       []pubSlot
	groupOf    []CPUSet // per-CPU sync group; nil = one machine-wide group
	ipiLogOn   bool     // record deliveries in each target's CPU.ipiLog
	grantLog   []GrantRecord
}

// pubSlot is one CPU's published clock, padded to a 64-byte cache line
// so that CPUs publishing concurrently never share a line.
type pubSlot struct {
	t atomic.Int64
	_ [56]byte
}

// invariantCheck is one registered consistency check. Checks run in
// registration order and charge no simulated time: they are tooling,
// not modelled kernel work.
type invariantCheck struct {
	name string
	fn   func() error
}

// NewMachine builds a machine with n CPUs, 1 <= n <= MaxCPUs. All CPU clocks
// start at zero; CPU 0 is the boot CPU and is current. Each CPU's RNG
// stream is derived deterministically from seed and the CPU number.
func NewMachine(params *Params, n int, seed uint64) *Machine {
	if n < 1 || n > MaxCPUs {
		panic(fmt.Sprintf("sim: machine needs 1 to %d CPUs, got %d", MaxCPUs, n))
	}
	m := &Machine{params: params}
	m.kclock = &Clock{mach: m, fwd: true}
	m.pubs = make([]pubSlot, n)
	for i := 0; i < n; i++ {
		m.cpus = append(m.cpus, &CPU{
			id:    i,
			mach:  m,
			clock: &Clock{mach: m, id: i},
			// The golden-ratio stride decorrelates per-CPU streams
			// while keeping them a pure function of (seed, id).
			rng:   NewRNG(seed + uint64(i)*0x9E3779B97F4A7C15),
			stats: metrics.NewSet(),
		})
	}
	m.cur = m.cpus[0]
	return m
}

// MachineOf returns the machine that owns clock. A free-standing clock
// (one not created by NewMachine) is adopted as the sole CPU of a new
// implicit single-CPU machine, which keeps the pre-SMP construction
// style — build a &sim.Clock{} and hand it to every subsystem —
// working unchanged.
func MachineOf(clock *Clock, params *Params) *Machine {
	if clock.mach != nil {
		return clock.mach
	}
	m := &Machine{params: params}
	m.kclock = &Clock{mach: m, fwd: true}
	m.pubs = make([]pubSlot, 1)
	cpu := &CPU{id: 0, mach: m, clock: clock, rng: NewRNG(0), stats: metrics.NewSet()}
	clock.mach = m
	m.cpus = []*CPU{cpu}
	m.cur = cpu
	return m
}

// Params returns the machine's cost table.
func (m *Machine) Params() *Params { return m.params }

// NumCPUs returns the number of CPUs.
func (m *Machine) NumCPUs() int { return len(m.cpus) }

// CPU returns CPU i.
func (m *Machine) CPU(i int) *CPU { return m.cpus[i] }

// CPUs returns all CPUs in ID order. The slice is shared; do not modify.
func (m *Machine) CPUs() []*CPU { return m.cpus }

// BootCPU returns CPU 0.
func (m *Machine) BootCPU() *CPU { return m.cpus[0] }

// Current returns the CPU currently executing. During a parallel
// phase's free-running window there is no single current CPU; calling
// this then is a bug (use the explicit executing-CPU parameter instead)
// and panics.
func (m *Machine) Current() *CPU {
	m.mustNotFreePhase("Current")
	return m.cur
}

// SetCurrent switches execution to c. Subsequent charges through the
// kernel clock land on c. c must belong to this machine. Panics during
// a parallel phase's free-running window (use Ordered instead).
func (m *Machine) SetCurrent(c *CPU) {
	if c.mach != m {
		panic("sim: SetCurrent with a CPU from another machine")
	}
	m.mustNotFreePhase("SetCurrent")
	m.cur = c
}

// Clock returns the machine's kernel clock: a forwarding clock whose
// operations apply to the current CPU's clock.
func (m *Machine) Clock() *Clock { return m.kclock }

// Time returns the machine-wide virtual time: the maximum over all CPU
// clocks. Benchmarks measure elapsed machine time so that work fanned
// out to many CPUs (e.g. shootdown handlers) is reflected in the total.
func (m *Machine) Time() Time {
	t := m.cpus[0].clock.now
	for _, c := range m.cpus[1:] {
		if c.clock.now > t {
			t = c.clock.now
		}
	}
	return t
}

// Sync advances every CPU's clock to the machine-wide maximum,
// modeling a synchronization barrier. Measurements of elapsed machine
// time (Time() deltas) must start from a synchronized state: work
// charged to a CPU that lags the global maximum would otherwise be
// masked by it. A no-op on a single-CPU machine.
func (m *Machine) Sync() {
	t := m.Time()
	for _, c := range m.cpus {
		c.clock.AdvanceTo(t)
	}
}

// Others returns every CPU except c, in ID order.
func (m *Machine) Others(c *CPU) []*CPU {
	out := make([]*CPU, 0, len(m.cpus)-1)
	for _, o := range m.cpus {
		if o != c {
			out = append(out, o)
		}
	}
	return out
}

// IPI models a synchronous inter-processor interrupt from one CPU to a
// set of targets, as used by TLB shootdown:
//
//   - the sender pays IPISend per target,
//   - each target's clock merges forward to the send time (it cannot
//     observe the interrupt before it was sent), pays IPIReceive, and
//     runs handler as the executing CPU,
//   - the sender then waits for all acknowledgements: its clock merges
//     forward to the latest target finish time.
//
// The merges are deterministic (targets are visited in ID order), so
// the resulting clock values are a pure function of the event history —
// a Lamport-style clock union. An empty target set costs nothing.
//
// During a parallel phase (Machine.RunParallel), an IPI with live
// targets is a sync point: the sender charges its send cost, then
// blocks until delivery is granted at key (send time, sender id) over
// the sync domain {sender} ∪ targets, so delivery order between
// overlapping shootdowns is identical to serial execution while
// disjoint shootdowns overlap. Inside an ordered section the targets
// are provably parked, so delivery is inline as in the serial case.
func (m *Machine) IPI(from *CPU, targets []*CPU, handler func(*CPU)) {
	if len(targets) == 0 {
		return
	}
	telAddIPIRound(len(targets))
	from.Advance(Time(len(targets)) * m.params.IPISend)
	send := from.Now()
	if m.inFreePhase() {
		var dom CPUSet
		dom.Add(from.id)
		for _, t := range targets {
			dom.Add(t.id)
		}
		m.phase.syncPoint(from, send, dom, func() {
			m.deliverIPI(from, targets, handler, send)
		})
		return
	}
	m.deliverIPI(from, targets, handler, send)
}

// deliverIPI performs the delivery half of IPI: targets merge forward
// to the send time, pay IPIReceive, run the handler as the executing
// CPU, and the sender finally merges to the latest finish time. Runs
// serially (out of phase), under a machine-wide exclusive grant, or
// inside a narrow-domain section — in the last case the current-CPU
// pointer is shared with concurrently free-running CPUs and must not
// be touched (handlers receive the target CPU explicitly).
func (m *Machine) deliverIPI(from *CPU, targets []*CPU, handler func(*CPU), send Time) {
	end := send
	touchCur := !m.inFreePhase()
	var prev *CPU
	if touchCur {
		prev = m.cur
	}
	for _, t := range targets {
		if t == from {
			panic("sim: IPI target includes the sender")
		}
		t.AdvanceTo(send)
		t.Advance(m.params.IPIReceive)
		t.stats.Counter("ipis_received").Inc()
		if handler != nil {
			if touchCur {
				m.cur = t
			}
			handler(t)
		}
		if m.ipiLogOn {
			t.ipiLog = append(t.ipiLog, IPIDelivery{From: from.id, To: t.id, Send: send, Arrive: t.Now()})
		}
		if t.Now() > end {
			end = t.Now()
		}
	}
	if touchCur {
		m.cur = prev
	}
	from.stats.Counter("ipis_sent").Add(uint64(len(targets)))
	from.AdvanceTo(end)
}

// Broadcast sends an IPI from from to every other CPU.
func (m *Machine) Broadcast(from *CPU, handler func(*CPU)) {
	m.IPI(from, m.Others(from), handler)
}

// RegisterInvariants adds a named consistency check to the machine.
// Subsystems self-register at construction time so that a single
// Machine.CheckInvariants call validates the whole machine regardless
// of which subsystems a test happens to build.
func (m *Machine) RegisterInvariants(name string, fn func() error) {
	m.checks = append(m.checks, invariantCheck{name: name, fn: fn})
}

// CheckInvariants runs every registered check, in registration order,
// and returns the first failure wrapped with the registering
// subsystem's name. It advances no simulated clock: calling it between
// any two operations of a test must not perturb timing results.
func (m *Machine) CheckInvariants() error {
	for _, c := range m.checks {
		if err := c.fn(); err != nil {
			return fmt.Errorf("invariant %q: %w", c.name, err)
		}
	}
	return nil
}
