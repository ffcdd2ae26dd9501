package sim

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"time"
)

// This file implements host-parallel execution of one machine's CPUs
// under a conservative discrete-event synchronization protocol with
// sharded sync domains (see DESIGN.md §11).
//
// Machine.RunParallel runs one task per CPU. Each task free-runs on its
// own goroutine, charging only its own CPU's clock and touching only
// per-CPU simulated state, until it would interact cross-CPU (an IPI
// with live targets, or an explicit Ordered/OrderedDomain section).
// There it blocks at a *sync point* keyed by (virtual time, CPU id)
// and carrying a *sync domain*: the set of CPUs whose simulated state
// the section reads or mutates (the IPI target set plus the sender;
// the declared peers of an ordered section).
//
// A waiter w is granted when four conditions hold:
//
//  1. every other CPU in w's domain is parked at a sync point or done
//     (the section will mutate their clocks and TLBs; a running domain
//     CPU would race),
//  2. every other CPU in w's *sync group* is provably past w's key:
//     done CPUs trivially, parked CPUs because their own key is
//     larger, and free-running CPUs because their published clock
//     already exceeds w's key — a CPU's next sync key can never be
//     below its current clock, so it can no longer produce a section
//     that should have run before w,
//  3. no currently-executing section's domain intersects w's domain
//     (an earlier-keyed overlapping section must finish first), and
//  4. a run slot is free (granted sections occupy run slots, so
//     serial mode — one slot — still executes one context at a time).
//
// Condition 2 means sections over intersecting domains are granted in
// global (time, id) order, and sections over disjoint domains commute
// (they touch disjoint per-CPU state, and all cross-CPU clock merges
// stay inside the domain), so the final simulated state is a pure
// function of virtual time — never of host scheduling. Serial mode is
// the *same* protocol with the run-slot limit set to 1 instead of
// NumCPUs, so serial and host-parallel execution are byte-identical
// by construction; the difference is wall-clock only.
//
// Sync groups (Machine.SetSyncGroups) strengthen this: they declare a
// partition of CPUs such that no section's domain crosses a group
// boundary (enforced by panic). Condition 2 then only inspects the
// waiter's own group, so disjoint tenants pinned to disjoint groups
// never barrier against each other at all.
//
// Sync domains are CPUSet bitmasks, so a machine has at most 64 CPUs
// (NewMachine enforces it).

// cpuState is one CPU's scheduler state during a parallel phase.
type cpuState uint8

const (
	cpuReady   cpuState = iota // task goroutine not started yet
	cpuRunning                 // free-running (holds a run slot)
	cpuParked                  // blocked at a sync point
	cpuGranted                 // executing its section (holds a run slot)
	cpuDone                    // task returned
)

// phase is the scheduler state for one RunParallel invocation.
type phase struct {
	m    *Machine
	mu   sync.Mutex
	cond *sync.Cond

	slots  int // max CPUs executing at once (1 = serial mode)
	active int // CPUs holding a run slot (running or granted)

	state   []cpuState    // by CPU id
	waiting []*syncWaiter // by CPU id; non-nil while parked or granted
	order   []*syncWaiter // gate scratch: ungranted waiters, key-sorted

	errs   []error // per-CPU task results
	panics []any   // per-CPU recovered panic values

	// protoErr is the first protocol violation the gate detected. The
	// gate runs under mu, and runCPU's deferred recover takes mu again,
	// so the gate records the violation instead of panicking and
	// RunParallel raises it once every task goroutine has returned.
	protoErr error
}

// syncWaiter is one CPU blocked at (or executing) a sync point.
type syncWaiter struct {
	at      Time   // the waiter's virtual time when it blocked
	cpu     int    // owning CPU id (key tiebreak)
	dom     CPUSet // CPUs the section observes or mutates
	granted bool
	// wake carries the grant to the parked goroutine. A dedicated
	// buffered channel per waiter means a grant readies exactly one
	// goroutine; broadcasting on a shared cond would wake every parked
	// CPU on every transition — a measurable futex storm once sharded
	// domains let many sections overlap.
	wake chan struct{}
}

// SetHostParallel selects the run-slot limit for subsequent RunParallel
// calls: true runs every CPU's context on its own goroutine, false
// (the default) runs the same protocol one CPU at a time. Simulated
// results are identical either way.
func (m *Machine) SetHostParallel(on bool) { m.hostpar = on }

// HostParallel reports whether RunParallel uses all host cores.
func (m *Machine) HostParallel() bool { return m.hostpar }

// SetSyncGroups declares a partition of the machine's CPUs into
// disjoint sync groups: a promise that no sync domain (IPI sender plus
// targets, ordered-section peers) will ever span two groups, checked
// at every sync point. The gate then confines condition 2 to the
// waiter's own group, so CPUs in different groups never wait for each
// other. CPUs not named in any group form singleton groups. Passing
// nil restores the default single machine-wide group. Must not be
// called during a parallel phase.
func (m *Machine) SetSyncGroups(groups [][]int) {
	if m.phase != nil {
		panic("sim: SetSyncGroups during a parallel phase")
	}
	if groups == nil {
		m.groupOf = nil
		return
	}
	n := len(m.cpus)
	groupOf := make([]CPUSet, n)
	var seen CPUSet
	for _, g := range groups {
		var set CPUSet
		for _, id := range g {
			if id < 0 || id >= n {
				panic(fmt.Sprintf("sim: sync group CPU %d out of range [0,%d)", id, n))
			}
			if seen.Has(id) {
				panic(fmt.Sprintf("sim: CPU %d named in two sync groups", id))
			}
			seen.Add(id)
			set.Add(id)
		}
		for _, id := range g {
			groupOf[id] = set
		}
	}
	for id := 0; id < n; id++ {
		if groupOf[id] == 0 {
			groupOf[id].Add(id)
		}
	}
	m.groupOf = groupOf
}

// groupMask returns the sync group containing CPU id (the full machine
// when no partition is declared).
func (m *Machine) groupMask(id int) CPUSet {
	if m.groupOf == nil {
		return fullCPUSet(len(m.cpus))
	}
	return m.groupOf[id]
}

// FreeRunning reports whether a parallel phase is currently in its
// free-running window: multiple CPU contexts may be executing
// concurrently, and there is no single current CPU. Subsystem entry
// points use it to skip legacy current-CPU bookkeeping that has no
// meaning in that window.
func (m *Machine) FreeRunning() bool { return m.inFreePhase() }

// inFreePhase reports whether multiple CPU contexts may be running
// concurrently right now: a parallel phase is active on a multi-CPU
// machine and no CPU holds a machine-wide exclusive grant. State
// shared between CPUs (the current-CPU pointer, the forwarding kernel
// clock) must not be used in this window; the accessors panic if it
// is. Note that narrow-domain sections execute inside this window —
// they may only touch the per-CPU state of their declared domain.
func (m *Machine) inFreePhase() bool {
	return m.phaseFlag.Load() && len(m.cpus) > 1 && !m.exclFlag.Load()
}

// RunParallel runs task once per CPU, in parallel virtual time, under
// the conservative synchronization protocol above. It returns the
// lowest-ID CPU's error if any task failed. Panics in a task are
// re-raised in the caller. The current CPU is restored afterwards.
// Nested RunParallel calls panic.
func (m *Machine) RunParallel(task func(*CPU) error) error {
	if m.phase != nil {
		panic("sim: nested RunParallel")
	}
	n := len(m.cpus)
	p := &phase{
		m:       m,
		slots:   1,
		state:   make([]cpuState, n),
		waiting: make([]*syncWaiter, n),
		errs:    make([]error, n),
		panics:  make([]any, n),
	}
	p.cond = sync.NewCond(&p.mu)
	if m.hostpar {
		p.slots = n
	}
	// Seed the published clocks so the gate's lower bounds are valid
	// from the first grant. In serial mode the seeds are all the gate
	// ever reads: it reads a slot only for a CPU that is not executing,
	// and a ready CPU's clock cannot move before its task starts
	// (condition 1 keeps it out of every granted domain).
	for i, c := range m.cpus {
		m.pubs[i].t.Store(int64(c.clock.now))
	}
	prev := m.cur
	m.phase = p
	m.phaseFlag.Store(true)
	m.publishing = p.slots > 1

	var wg sync.WaitGroup
	wg.Add(n)
	for _, c := range m.cpus {
		c := c
		// The pprof label makes per-simulated-CPU goroutines separable
		// in CPU profiles and runtime traces (o1bench -trace).
		labels := pprof.Labels("sim_cpu", strconv.Itoa(c.id))
		go func() {
			defer wg.Done()
			pprof.Do(context.Background(), labels, func(context.Context) {
				p.runCPU(c, task)
			})
		}()
	}
	wg.Wait()

	m.publishing = false
	m.phaseFlag.Store(false)
	m.phase = nil
	m.cur = prev

	if p.protoErr != nil {
		panic(p.protoErr)
	}
	for _, r := range p.panics {
		if r != nil {
			panic(r)
		}
	}
	for _, err := range p.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runCPU is one CPU's goroutine: acquire a run slot, execute the task,
// and retire. Panics are captured and re-raised by RunParallel so that
// the phase always drains cleanly.
func (p *phase) runCPU(c *CPU, task func(*CPU) error) {
	p.mu.Lock()
	for p.active >= p.slots {
		p.cond.Wait()
	}
	p.active++
	p.state[c.id] = cpuRunning
	p.mu.Unlock()

	defer func() {
		r := recover()
		p.mu.Lock()
		if r != nil {
			p.panics[c.id] = r
		}
		p.active--
		p.state[c.id] = cpuDone
		p.checkGateLocked()
		p.cond.Broadcast()
		p.mu.Unlock()
	}()
	p.errs[c.id] = task(c)
}

// syncPoint blocks CPU c at key (at, c.id) with sync domain dom until
// the gate grants it, then runs fn and resumes free-running. A
// machine-wide domain runs exclusively with c as the current CPU; a
// narrower domain runs concurrently with CPUs outside it and must
// confine itself to the domain's per-CPU state. Must be called from
// c's own task goroutine.
func (p *phase) syncPoint(c *CPU, at Time, dom CPUSet, fn func()) {
	full := fullCPUSet(len(p.m.cpus))
	p.mu.Lock()
	if p.state[c.id] == cpuGranted {
		p.mu.Unlock()
		panic("sim: nested sync point inside an ordered section")
	}
	if grp := p.m.groupMask(c.id); !dom.SubsetOf(grp) {
		p.mu.Unlock()
		panic(fmt.Sprintf("sim: sync domain %s of CPU %d crosses its sync group %s", dom, c.id, grp))
	}
	p.active--
	p.state[c.id] = cpuParked
	w := &syncWaiter{at: at, cpu: c.id, dom: dom, wake: make(chan struct{}, 1)}
	p.waiting[c.id] = w
	p.checkGateLocked()
	p.cond.Broadcast() // parking freed a run slot: a ready CPU may start
	p.mu.Unlock()
	t0 := time.Now()
	<-w.wake
	waited := time.Since(t0)
	// The gate already moved c to cpuGranted and charged it a run slot.
	p.mu.Lock()
	global := dom == full
	if global {
		p.m.exclFlag.Store(true)
		p.m.cur = c
	}
	p.mu.Unlock()
	telAddGrant(dom.Count(), global, int64(waited))

	defer func() {
		p.mu.Lock()
		if global {
			p.m.exclFlag.Store(false)
		}
		p.state[c.id] = cpuRunning // keeps its run slot
		p.waiting[c.id] = nil
		// Leaving a section can only make other waiters grantable (it
		// never frees a run slot), so no slot-gate broadcast is needed.
		p.checkGateLocked()
		p.mu.Unlock()
	}()
	fn()
}

// checkGateLocked grants every waiter the protocol allows, in key
// order. Called with p.mu held after every transition that could make
// a waiter grantable: a CPU parking, finishing, or leaving a section.
func (p *phase) checkGateLocked() {
	if p.active >= p.slots {
		return
	}
	p.order = p.order[:0]
	for _, w := range p.waiting {
		if w != nil && !w.granted {
			p.order = append(p.order, w)
		}
	}
	if len(p.order) == 0 {
		return
	}
	sort.Slice(p.order, func(i, j int) bool {
		a, b := p.order[i], p.order[j]
		return a.at < b.at || (a.at == b.at && a.cpu < b.cpu)
	})
	for _, w := range p.order {
		if p.active >= p.slots {
			return
		}
		if p.grantableLocked(w) {
			p.grantLocked(w)
		}
	}
}

// grantLocked marks w granted, moves its CPU into its section, and
// charges it a run slot. The waiter's goroutine observes the flag
// under p.mu and proceeds.
func (p *phase) grantLocked(w *syncWaiter) {
	w.granted = true
	p.state[w.cpu] = cpuGranted
	p.active++
	if p.m.grantLog != nil {
		p.m.grantLog = append(p.m.grantLog, GrantRecord{At: w.at, CPU: w.cpu, Dom: w.dom})
	}
	w.wake <- struct{}{} // buffered; a waiter is granted at most once
}

// grantableLocked checks conditions 1–3 of the protocol for w (the
// caller checks slot availability). Only CPUs in w's sync group are
// inspected: domains never cross groups, so CPUs outside the group
// share no observable state with this section.
func (p *phase) grantableLocked(w *syncWaiter) bool {
	grp := p.m.groupMask(w.cpu)
	for j := 0; j < len(p.m.cpus); j++ {
		if j == w.cpu || !grp.Has(j) {
			continue
		}
		switch p.state[j] {
		case cpuDone:
			// Past every key, and its state can no longer change.
		case cpuParked:
			// j's next section is its parked key; it must come after
			// w. (Delivery into a parked domain CPU is safe: it runs
			// before j's own, later-keyed, section — the serial order.)
			wj := p.waiting[j]
			if wj.at < w.at || (wj.at == w.at && j < w.cpu) {
				return false
			}
		case cpuGranted:
			// An executing section. It must not overlap w's domain
			// (condition 3: an earlier-keyed overlapping section is
			// still mutating shared CPUs), j must not be in w's domain
			// (condition 1), and j's future sections must provably
			// come after w (condition 2, via the published clock —
			// the in-section clock may still be behind w's key even
			// though the section's own key was smaller).
			if p.waiting[j].dom.Intersects(w.dom) {
				return false
			}
			if w.dom.Has(j) || !p.pubPast(j, w) {
				return false
			}
		default: // cpuReady, cpuRunning
			// A free-running (or not yet started) CPU: it must not be
			// in w's domain (condition 1 — the section would mutate
			// state it is concurrently using; for a ready CPU, a
			// merge before its task starts would reorder against the
			// serial schedule), and its published clock must already
			// be past w's key (condition 2).
			if w.dom.Has(j) || !p.pubPast(j, w) {
				return false
			}
		}
	}
	return true
}

// pubPast reports whether CPU j's published clock proves its next sync
// key exceeds w's key: a CPU can sync no earlier than its current
// time, so (pub_j, j) lexicographically after (w.at, w.cpu) suffices.
// Published values only lag the true clock, which is conservative.
//
// An executing CPU's slot is only kept current while the machine
// publishes (more than one run slot). Reading it otherwise would trust
// a stale bound that nothing refreshes, so it is recorded as a
// protocol violation and the waiter is not granted.
func (p *phase) pubPast(j int, w *syncWaiter) bool {
	if !p.m.publishing && (p.state[j] == cpuRunning || p.state[j] == cpuGranted) {
		if p.protoErr == nil {
			p.protoErr = fmt.Errorf("sim: gate read the unpublished clock of executing CPU %d", j)
		}
		return false
	}
	pj := Time(p.m.pubs[j].t.Load())
	return pj > w.at || (pj == w.at && j > w.cpu)
}

// Ordered executes fn as CPU c with cross-CPU effects permitted within
// c's sync group. Outside a parallel phase this is simply
// SetCurrent(c); fn(). Inside one, fn becomes a sync point keyed by
// (c.Now(), c.ID()) whose domain is c's whole sync group — the whole
// machine by default — so legacy code that assumes serial interleaving
// stays correct under RunParallel. In-phase calls must come from c's
// own task goroutine.
func (m *Machine) Ordered(c *CPU, fn func()) {
	if c.mach != m {
		panic("sim: Ordered with a CPU from another machine")
	}
	if m.inFreePhase() {
		m.phase.syncPoint(c, c.Now(), m.groupMask(c.id), fn)
		return
	}
	m.cur = c
	fn()
}

// OrderedDomain executes fn as CPU c under a narrow sync domain: c
// plus the declared peers, which must all lie in c's sync group. In a
// parallel phase fn runs once the domain CPUs are parked and every
// group CPU is provably past the section's key; CPUs outside the
// domain keep free-running, so disjoint sections overlap. fn must
// confine itself to the domain CPUs' state (it runs without the
// machine-wide exclusive flag: no Current(), no forwarding kernel
// clock). Outside a phase it is SetCurrent(c); fn().
func (m *Machine) OrderedDomain(c *CPU, peers []*CPU, fn func()) {
	if c.mach != m {
		panic("sim: OrderedDomain with a CPU from another machine")
	}
	if m.inFreePhase() {
		var dom CPUSet
		dom.Add(c.id)
		for _, o := range peers {
			dom.Add(o.id)
		}
		m.phase.syncPoint(c, c.Now(), dom, fn)
		return
	}
	m.cur = c
	fn()
}

// GrantRecord is one granted sync section: its key and domain. Tests
// use the log to prove the grant-order property — sections over
// intersecting domains are granted in (time, id) order.
type GrantRecord struct {
	At  Time
	CPU int
	Dom CPUSet
}

// EnableGrantLog starts recording every granted sync section.
// Test-only: the log grows without bound.
func (m *Machine) EnableGrantLog() { m.grantLog = make([]GrantRecord, 0, 64) }

// GrantLog returns the recorded grants. The order is the host-side
// grant order; within any intersecting-domain subset it equals the
// virtual-time order.
func (m *Machine) GrantLog() []GrantRecord { return m.grantLog }

// IPIDelivery is one IPI delivery record: sender, receiver, and the
// send and receive completion times. Tests use the log to prove that
// host-parallel delivery order equals the serial Lamport order.
type IPIDelivery struct {
	From, To     int
	Send, Arrive Time
}

// EnableIPILog starts recording every IPI delivery. Test-only: the log
// grows without bound. Each delivery is recorded in its target CPU's
// own log, so recording needs no protocol of its own: a delivery runs
// inside a section whose domain holds the target, and sections over
// intersecting domains are serialized.
func (m *Machine) EnableIPILog() { m.ipiLogOn = true }

// IPILog returns the recorded deliveries, merged from the per-target
// logs in (send time, sender, target) order — the serial Lamport
// order, which disjoint deliveries overlapping on the host cannot
// change.
func (m *Machine) IPILog() []IPIDelivery {
	var log []IPIDelivery
	for _, c := range m.cpus {
		log = append(log, c.ipiLog...)
	}
	sort.SliceStable(log, func(i, j int) bool {
		a, b := log[i], log[j]
		if a.Send != b.Send {
			return a.Send < b.Send
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	return log
}

// mustNotFreePhase panics if shared machine state is touched while
// CPUs free-run concurrently.
func (m *Machine) mustNotFreePhase(what string) {
	if m.inFreePhase() {
		panic(fmt.Sprintf("sim: %s during a parallel phase outside an ordered section", what))
	}
}
