package sim

import (
	"strings"
	"testing"
)

// clockPhase runs fn as CPU 0's task in a RunParallel phase on a
// two-CPU machine, serial or host-parallel; CPU 1's task returns at
// once.
func clockPhase(t testing.TB, hostpar bool, fn func(c *Clock)) *Machine {
	t.Helper()
	params := DefaultParams()
	m := NewMachine(&params, 2, 1)
	m.SetHostParallel(hostpar)
	if err := m.RunParallel(func(c *CPU) error {
		if c.ID() == 0 {
			fn(c.Clock())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return m
}

// BenchmarkClockAdvance measures one charge of simulated time: outside
// any phase, inside a serial phase (one run slot, nothing published)
// and inside a host-parallel phase (every charge publishes).
func BenchmarkClockAdvance(b *testing.B) {
	b.Run("outside-phase", func(b *testing.B) {
		params := DefaultParams()
		c := NewMachine(&params, 2, 1).CPU(0).Clock()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Advance(1)
		}
	})
	for _, mode := range []struct {
		name    string
		hostpar bool
	}{{"serial-phase", false}, {"hostpar-phase", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			clockPhase(b, mode.hostpar, func(c *Clock) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.Advance(1)
				}
				b.StopTimer()
			})
		})
	}
}

// TestClockAdvanceAllocatesNothing pins a charge at zero host
// allocations, outside a phase and inside serial and host-parallel
// phases.
func TestClockAdvanceAllocatesNothing(t *testing.T) {
	params := DefaultParams()
	c := NewMachine(&params, 2, 1).CPU(0).Clock()
	if n := testing.AllocsPerRun(1000, func() { c.Advance(1) }); n != 0 {
		t.Errorf("outside a phase: Advance allocates %v times per call", n)
	}
	for _, hostpar := range []bool{false, true} {
		clockPhase(t, hostpar, func(c *Clock) {
			if n := testing.AllocsPerRun(1000, func() { c.Advance(1) }); n != 0 {
				t.Errorf("hostpar=%v: Advance allocates %v times per call", hostpar, n)
			}
		})
	}
}

// TestClockPublishesOnlyInHostParallelPhases: a serial phase leaves
// each published slot at its seed (the clock at phase start), while a
// host-parallel phase keeps it equal to the clock; outside a phase
// nothing is published.
func TestClockPublishesOnlyInHostParallelPhases(t *testing.T) {
	for _, hostpar := range []bool{false, true} {
		m := clockPhase(t, hostpar, func(c *Clock) { c.Advance(100) })
		want := int64(0)
		if hostpar {
			want = 100
		}
		if got := m.pubs[0].t.Load(); got != want {
			t.Errorf("hostpar=%v: published %d after the phase, want %d", hostpar, got, want)
		}
		if m.publishing {
			t.Errorf("hostpar=%v: still publishing after the phase", hostpar)
		}
		m.CPU(0).Advance(5)
		if got := m.pubs[0].t.Load(); got != want {
			t.Errorf("hostpar=%v: a charge outside the phase published %d", hostpar, got)
		}
	}
}

// TestPubPastRejectsUnpublishedClock: when the machine is not
// publishing, the gate must not read the slot of a running or granted
// CPU. pubPast records a protocol violation and refuses the grant
// instead of panicking under the phase mutex.
func TestPubPastRejectsUnpublishedClock(t *testing.T) {
	params := DefaultParams()
	m := NewMachine(&params, 3, 1)
	w := &syncWaiter{at: 10, cpu: 0}
	for _, st := range []cpuState{cpuReady, cpuRunning, cpuGranted} {
		p := &phase{m: m, state: []cpuState{cpuParked, st, cpuDone}}
		m.pubs[1].t.Store(50)
		got := p.pubPast(1, w)
		if st == cpuReady {
			if !got || p.protoErr != nil {
				t.Errorf("ready CPU: pubPast=%v err=%v, want true and no error", got, p.protoErr)
			}
			continue
		}
		if got {
			t.Errorf("state %d: pubPast trusted an unpublished clock", st)
		}
		if p.protoErr == nil || !strings.Contains(p.protoErr.Error(), "unpublished clock of executing CPU 1") {
			t.Errorf("state %d: protocol error = %v", st, p.protoErr)
		}
	}
}
