package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// parallelWorkload is a seeded per-CPU task mixing local clock
// advances with cross-CPU broadcasts, used by the determinism tests.
// Each CPU's op stream is a pure function of (seed, cpu id).
func parallelWorkload(ops int, seed uint64) func(*CPU) error {
	return func(c *CPU) error {
		rng := NewRNG(seed + uint64(c.ID())*0x9E3779B97F4A7C15)
		m := c.mach
		for i := 0; i < ops; i++ {
			switch rng.Intn(4) {
			case 0, 1:
				c.Advance(Time(1 + rng.Intn(500)))
			case 2:
				c.Stats().Counter("local_ops").Inc()
				c.Advance(Time(1 + rng.Intn(50)))
			case 3:
				m.IPI(c, others(m, c), func(t *CPU) {
					t.Advance(Time(7))
					t.Stats().Counter("handled").Inc()
				})
			}
		}
		return nil
	}
}

// runPhase executes the workload on a fresh machine and returns the
// machine for inspection.
func runPhase(t *testing.T, cpus int, hostpar bool, ops int, seed uint64) *Machine {
	t.Helper()
	params := DefaultParams()
	m := NewMachine(&params, cpus, seed)
	m.SetHostParallel(hostpar)
	m.EnableIPILog()
	if err := m.RunParallel(parallelWorkload(ops, seed)); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRunParallelMatchesSerial is the tentpole property test: for the
// same seeded workload, serial (one run slot) and host-parallel (one
// goroutine per CPU) execution must produce identical machine state —
// every clock, every counter — and the identical IPI delivery log, in
// the identical order.
func TestRunParallelMatchesSerial(t *testing.T) {
	for _, cpus := range []int{1, 2, 4, 8} {
		for seed := uint64(1); seed <= 5; seed++ {
			serial := runPhase(t, cpus, false, 400, seed)
			par := runPhase(t, cpus, true, 400, seed)
			if d := serial.CaptureState().Diff(par.CaptureState()); d != "" {
				t.Fatalf("cpus=%d seed=%d: state diverged:\n%s", cpus, seed, d)
			}
			if !reflect.DeepEqual(serial.IPILog(), par.IPILog()) {
				t.Fatalf("cpus=%d seed=%d: IPI delivery logs differ:\nserial: %v\nparallel: %v",
					cpus, seed, serial.IPILog(), par.IPILog())
			}
		}
	}
}

// TestIPIDeliveryIsLamportOrdered checks the protocol's ordering rule
// directly: deliveries appear in the log in nondecreasing (send time,
// sender id) order — the serial Lamport order — and each target's
// arrival is at least the send time plus the receive cost.
func TestIPIDeliveryIsLamportOrdered(t *testing.T) {
	params := DefaultParams()
	for _, hostpar := range []bool{false, true} {
		m := NewMachine(&params, 6, 99)
		m.SetHostParallel(hostpar)
		m.EnableIPILog()
		if err := m.RunParallel(parallelWorkload(300, 1234)); err != nil {
			t.Fatal(err)
		}
		log := m.IPILog()
		if len(log) == 0 {
			t.Fatal("workload generated no IPIs")
		}
		for i := 1; i < len(log); i++ {
			a, b := log[i-1], log[i]
			sameRound := a.From == b.From && a.Send == b.Send
			if sameRound {
				if b.To <= a.To {
					t.Fatalf("hostpar=%v: targets out of ID order at %d: %v then %v", hostpar, i, a, b)
				}
				continue
			}
			if b.Send < a.Send || (b.Send == a.Send && b.From < a.From) {
				t.Fatalf("hostpar=%v: deliveries out of (send, sender) order at %d: %v then %v", hostpar, i, a, b)
			}
		}
		for _, d := range log {
			if d.Arrive < d.Send+params.IPIReceive {
				t.Fatalf("hostpar=%v: delivery %v arrives before send+IPIReceive", hostpar, d)
			}
		}
		// Each target records its own deliveries as they run; sections
		// over a shared target are serialized in key order, so every
		// per-target log is already in (send, sender) order.
		for _, c := range m.cpus {
			for i := 1; i < len(c.ipiLog); i++ {
				a, b := c.ipiLog[i-1], c.ipiLog[i]
				if b.Send < a.Send || (b.Send == a.Send && b.From < a.From) {
					t.Fatalf("hostpar=%v: CPU %d's own log out of (send, sender) order at %d: %v then %v",
						hostpar, c.id, i, a, b)
				}
			}
		}
	}
}

// TestRunParallelPropagatesErrors checks that a failing task surfaces
// its error (lowest CPU id wins) and the phase still drains cleanly.
func TestRunParallelPropagatesErrors(t *testing.T) {
	params := DefaultParams()
	m := NewMachine(&params, 4, 1)
	m.SetHostParallel(true)
	errBoom := errors.New("boom")
	err := m.RunParallel(func(c *CPU) error {
		c.Advance(10)
		if c.ID() >= 2 {
			return fmt.Errorf("cpu %d: %w", c.ID(), errBoom)
		}
		return nil
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	// The machine is reusable after a failed phase.
	if err := m.RunParallel(func(c *CPU) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestRunParallelPropagatesPanics checks that a panicking task is
// re-raised in the caller after the phase drains.
func TestRunParallelPropagatesPanics(t *testing.T) {
	params := DefaultParams()
	m := NewMachine(&params, 4, 1)
	m.SetHostParallel(true)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic did not propagate")
		}
	}()
	_ = m.RunParallel(func(c *CPU) error {
		if c.ID() == 3 {
			panic("task exploded")
		}
		c.Advance(5)
		return nil
	})
}

// TestOrderedSerializesSharedState checks that machine-wide ordered
// sections may touch shared machine state (the forwarding clock,
// SetCurrent) from a parallel phase, and that their execution order
// follows (time, id).
func TestOrderedSerializesSharedState(t *testing.T) {
	params := DefaultParams()
	type entry struct {
		CPU int
		At  Time
	}
	run := func(hostpar bool) []entry {
		m := NewMachine(&params, 4, 7)
		m.SetHostParallel(hostpar)
		var order []entry
		if err := m.RunParallel(func(c *CPU) error {
			// Stagger the clocks so the grant order is interesting:
			// CPU 3 reaches its section at the earliest time.
			c.Advance(Time(1000 * (4 - c.ID())))
			for i := 0; i < 3; i++ {
				m.OrderedDomain(c, others(m, c), func() {
					// Inside the section the forwarding kernel clock is
					// legal and charges c.
					m.Clock().Advance(10)
					order = append(order, entry{CPU: c.ID(), At: c.Now()})
				})
				c.Advance(Time(100 * (1 + c.ID())))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return order
	}
	serial := run(false)
	par := run(true)
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("ordered-section order diverged:\nserial: %v\nparallel: %v", serial, par)
	}
	if len(serial) != 12 {
		t.Fatalf("got %d entries, want 12", len(serial))
	}
	if serial[0].CPU != 3 {
		t.Fatalf("first section should run on CPU 3 (earliest clock), got %v", serial[0])
	}
}

// TestFreePhaseGuards checks that shared-state accessors panic during
// the free-running window instead of silently racing.
func TestFreePhaseGuards(t *testing.T) {
	params := DefaultParams()
	expectPanic := func(name string, fn func(c *CPU)) {
		m := NewMachine(&params, 2, 1)
		m.SetHostParallel(false)
		caught := false
		_ = m.RunParallel(func(c *CPU) error {
			defer func() {
				if recover() != nil {
					caught = true
				}
			}()
			fn(c)
			return nil
		})
		if !caught {
			t.Fatalf("%s did not panic during free-running phase", name)
		}
	}
	expectPanic("forwarding clock", func(c *CPU) { c.mach.Clock().Advance(1) })
	expectPanic("SetCurrent", func(c *CPU) { c.mach.SetCurrent(c) })
	expectPanic("Current", func(c *CPU) { _ = c.mach.Current() })

	// On a single-CPU machine the forwarding clock stays legal in-phase:
	// there is only one possible current CPU, so forwarding is exact.
	m := NewMachine(&params, 1, 1)
	if err := m.RunParallel(func(c *CPU) error {
		m.Clock().Advance(5)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if m.BootCPU().Now() != 5 {
		t.Fatalf("single-CPU forwarded charge lost: now=%v", m.BootCPU().Now())
	}
}

// TestRunParallelRestoresCurrent checks the current CPU is restored
// after a phase regardless of what ran inside it.
func TestRunParallelRestoresCurrent(t *testing.T) {
	params := DefaultParams()
	m := NewMachine(&params, 4, 1)
	m.SetCurrent(m.CPU(2))
	if err := m.RunParallel(func(c *CPU) error {
		m.OrderedDomain(c, others(m, c), func() {})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if m.Current() != m.CPU(2) {
		t.Fatalf("current CPU not restored: %d", m.Current().ID())
	}
}

// TestNestedRunParallelPanics pins the no-nesting contract.
func TestNestedRunParallelPanics(t *testing.T) {
	params := DefaultParams()
	m := NewMachine(&params, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("nested RunParallel did not panic")
		}
	}()
	_ = m.RunParallel(func(c *CPU) error {
		if c.ID() == 0 {
			_ = m.RunParallel(func(*CPU) error { return nil })
		}
		return nil
	})
}

// shardedWorkload is a seeded per-CPU task whose IPIs stay narrow —
// each CPU interrupts only its pair partner (id^1) — so the sharded
// gate grants pair sections concurrently while different pairs never
// barrier against each other.
func shardedWorkload(ops int, seed uint64) func(*CPU) error {
	return func(c *CPU) error {
		rng := NewRNG(seed + uint64(c.ID())*0x9E3779B97F4A7C15)
		m := c.mach
		partner := c.ID() ^ 1
		for i := 0; i < ops; i++ {
			switch rng.Intn(4) {
			case 0, 1:
				c.Advance(Time(1 + rng.Intn(500)))
			case 2:
				c.Stats().Counter("local_ops").Inc()
				c.Advance(Time(1 + rng.Intn(50)))
			case 3:
				if partner < m.NumCPUs() {
					m.IPI(c, []*CPU{m.CPU(partner)}, func(t *CPU) {
						t.Advance(Time(7))
						t.Stats().Counter("handled").Inc()
					})
				}
			}
		}
		return nil
	}
}

// runSharded executes the pairwise workload with the given run-slot
// and sync-group settings and returns the machine.
func runSharded(t *testing.T, cpus int, hostpar bool, ops int, seed uint64, groups [][]int) *Machine {
	t.Helper()
	params := DefaultParams()
	m := NewMachine(&params, cpus, seed)
	m.SetHostParallel(hostpar)
	if groups != nil {
		m.SetSyncGroups(groups)
	}
	if err := m.RunParallel(shardedWorkload(ops, seed)); err != nil {
		t.Fatal(err)
	}
	return m
}

// pairGroups builds the {2i, 2i+1} sync-group partition.
func pairGroups(cpus int) [][]int {
	var groups [][]int
	for i := 0; i+1 < cpus; i += 2 {
		groups = append(groups, []int{i, i + 1})
	}
	return groups
}

// TestShardedMatchesSerial is the sharded protocol's byte-identity
// matrix: for the same seeded workload, serial execution (one run slot)
// is the reference, and host-parallel execution, with and without
// explicit pair sync groups, must produce identical machine state.
func TestShardedMatchesSerial(t *testing.T) {
	for _, cpus := range []int{1, 2, 4, 8} {
		for seed := uint64(1); seed <= 5; seed++ {
			ref := runSharded(t, cpus, false, 400, seed, nil)
			for _, run := range []struct {
				name    string
				hostpar bool
				groups  [][]int
			}{
				{"sharded-hostpar", true, nil},
				{"sharded-serial-groups", false, pairGroups(cpus)},
				{"sharded-hostpar-groups", true, pairGroups(cpus)},
			} {
				m := runSharded(t, cpus, run.hostpar, 400, seed, run.groups)
				if d := ref.CaptureState().Diff(m.CaptureState()); d != "" {
					t.Fatalf("cpus=%d seed=%d: %s diverged from serial:\n%s", cpus, seed, run.name, d)
				}
			}
		}
	}
}

// TestShardedGrantOrderWithinDomains is the ISSUE's property test: in
// the grant log of a sharded host-parallel run, any two sections with
// intersecting sync domains must have been granted in ascending
// (simulated time, CPU id) order — the serial order. Disjoint sections
// may interleave arbitrarily.
func TestShardedGrantOrderWithinDomains(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		params := DefaultParams()
		m := NewMachine(&params, 8, seed)
		m.SetHostParallel(true)
		m.SetSyncGroups(pairGroups(8))
		m.EnableGrantLog()
		if err := m.RunParallel(shardedWorkload(300, seed)); err != nil {
			t.Fatal(err)
		}
		log := m.GrantLog()
		if len(log) == 0 {
			t.Fatal("workload generated no sync points")
		}
		for i := 0; i < len(log); i++ {
			for j := i + 1; j < len(log); j++ {
				a, b := log[i], log[j]
				if !a.Dom.Intersects(b.Dom) {
					continue
				}
				if b.At < a.At || (b.At == a.At && b.CPU < a.CPU) {
					t.Fatalf("seed=%d: intersecting sections granted out of key order: (%d,%d,%s) before (%d,%d,%s)",
						seed, a.At, a.CPU, a.Dom, b.At, b.CPU, b.Dom)
				}
			}
		}
	}
}

// TestSyncGroupEscapePanics: an IPI whose target set crosses the
// caller's sync group has no ordering guarantee and must panic rather
// than silently desynchronize.
func TestSyncGroupEscapePanics(t *testing.T) {
	params := DefaultParams()
	m := NewMachine(&params, 4, 1)
	m.SetHostParallel(true)
	m.SetSyncGroups([][]int{{0, 1}, {2, 3}})
	err := m.RunParallel(func(c *CPU) error {
		if c.ID() != 0 {
			return nil
		}
		defer func() {
			if recover() == nil {
				t.Error("cross-group IPI did not panic")
			}
		}()
		m.IPI(c, []*CPU{m.CPU(2)}, nil)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
