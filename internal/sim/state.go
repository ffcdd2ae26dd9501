package sim

import (
	"fmt"

	"repro/internal/metrics"
)

// CounterValue is one named counter's value at capture time.
type CounterValue struct {
	Name  string
	Value uint64
}

// CPUState is the captured execution state of one CPU: its virtual
// clock, its RNG state word, and its event counters (in first-use
// order, which is deterministic because the simulation is).
type CPUState struct {
	ID       int
	Clock    Time
	RNG      uint64
	Counters []CounterValue
}

// StatsState is the captured counter set of one registered subsystem.
type StatsState struct {
	Name     string
	Counters []CounterValue
}

// MachineState is a point-in-time capture of everything that
// determines a machine's forward behaviour at the simulation level:
// per-CPU clocks, RNG states, and counters, the current CPU, and every
// subsystem counter set registered via RegisterStats. Two machines
// whose MachineStates are equal (and whose memory contents agree) are
// bit-identical going forward under the same operation sequence.
type MachineState struct {
	Current int
	CPUs    []CPUState
	Stats   []StatsState
}

// statsEntry is one subsystem counter set registered for capture.
type statsEntry struct {
	name string
	set  *metrics.Set
}

// RegisterStats adds a named counter set to the machine's capture
// surface, mirroring RegisterInvariants: subsystems self-register at
// construction time so a single CaptureState sees every event counter
// on the machine regardless of which subsystems a caller built.
func (m *Machine) RegisterStats(name string, set *metrics.Set) {
	m.statSets = append(m.statSets, statsEntry{name: name, set: set})
}

// captureSet snapshots a counter set in first-use order.
func captureSet(s *metrics.Set) []CounterValue {
	names := s.Names()
	out := make([]CounterValue, len(names))
	for i, n := range names {
		out[i] = CounterValue{Name: n, Value: s.Value(n)}
	}
	return out
}

// CaptureState records the machine's execution state. Like
// CheckInvariants it advances no simulated clock: capturing is tooling,
// not modelled kernel work, so a capture between any two operations
// must not perturb the run.
func (m *Machine) CaptureState() *MachineState {
	st := &MachineState{Current: m.cur.id}
	for _, c := range m.cpus {
		st.CPUs = append(st.CPUs, CPUState{
			ID:       c.id,
			Clock:    c.clock.now,
			RNG:      c.rng.state,
			Counters: captureSet(c.stats),
		})
	}
	for _, e := range m.statSets {
		st.Stats = append(st.Stats, StatsState{Name: e.name, Counters: captureSet(e.set)})
	}
	return st
}

// Diff compares two captures and returns a description of the first
// difference, or "" if they are identical. It is the equality oracle
// behind snapshot verification: restore proofs demand an empty diff.
func (s *MachineState) Diff(o *MachineState) string {
	if s.Current != o.Current {
		return fmt.Sprintf("current CPU %d vs %d", s.Current, o.Current)
	}
	if len(s.CPUs) != len(o.CPUs) {
		return fmt.Sprintf("%d CPUs vs %d", len(s.CPUs), len(o.CPUs))
	}
	for i := range s.CPUs {
		a, b := &s.CPUs[i], &o.CPUs[i]
		if a.ID != b.ID {
			return fmt.Sprintf("cpu %d: id %d vs %d", i, a.ID, b.ID)
		}
		if a.Clock != b.Clock {
			return fmt.Sprintf("cpu %d: clock %d vs %d", a.ID, a.Clock, b.Clock)
		}
		if a.RNG != b.RNG {
			return fmt.Sprintf("cpu %d: rng state %#x vs %#x", a.ID, a.RNG, b.RNG)
		}
		if d := diffCounters(fmt.Sprintf("cpu %d", a.ID), a.Counters, b.Counters); d != "" {
			return d
		}
	}
	if len(s.Stats) != len(o.Stats) {
		return fmt.Sprintf("%d stat sets vs %d", len(s.Stats), len(o.Stats))
	}
	for i := range s.Stats {
		a, b := &s.Stats[i], &o.Stats[i]
		if a.Name != b.Name {
			return fmt.Sprintf("stat set %d: name %q vs %q", i, a.Name, b.Name)
		}
		if d := diffCounters(a.Name, a.Counters, b.Counters); d != "" {
			return d
		}
	}
	return ""
}

func diffCounters(who string, a, b []CounterValue) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%s: %d counters vs %d", who, len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			return fmt.Sprintf("%s: counter %d named %q vs %q", who, i, a[i].Name, b[i].Name)
		}
		if a[i].Value != b[i].Value {
			return fmt.Sprintf("%s: counter %q = %d vs %d", who, a[i].Name, a[i].Value, b[i].Value)
		}
	}
	return ""
}
