package sim

import (
	"fmt"
	"strings"
	"testing"
)

func TestSincePanicsOnFutureStart(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Since with start after now did not panic")
		}
	}()
	var c Clock
	c.Advance(100)
	c.Since(200)
}

func TestNewMachineBasics(t *testing.T) {
	params := DefaultParams()
	m := NewMachine(&params, 4, 1)
	if m.NumCPUs() != 4 {
		t.Fatalf("NumCPUs = %d", m.NumCPUs())
	}
	if m.BootCPU() != m.CPU(0) || m.Current() != m.CPU(0) {
		t.Fatal("boot CPU is not CPU 0 / not current")
	}
	for i, c := range m.CPUs() {
		if c.ID() != i || c.mach != m {
			t.Fatalf("CPU %d mislabeled", i)
		}
		if c.Now() != 0 {
			t.Fatalf("CPU %d clock not at zero", i)
		}
	}
}

func TestNewMachineRejectsZeroCPUs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("0-CPU machine accepted")
		}
	}()
	params := DefaultParams()
	NewMachine(&params, 0, 0)
}

func TestNewMachineRejectsMoreThanMaxCPUs(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("65-CPU machine accepted")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "1 to 64 CPUs, got 65") {
			t.Fatalf("unclear panic: %s", msg)
		}
	}()
	params := DefaultParams()
	NewMachine(&params, MaxCPUs+1, 0)
}

// TestMaxCPUMachineRunsInPhaseIPIs drives the widest machine through a
// parallel phase in which the highest CPU id sends IPIs: every sync
// domain, up to the full machine, must fit in a CPUSet.
func TestMaxCPUMachineRunsInPhaseIPIs(t *testing.T) {
	params := DefaultParams()
	m := NewMachine(&params, MaxCPUs, 1)
	m.EnableIPILog()
	err := m.RunParallel(func(c *CPU) error {
		if c.ID() == MaxCPUs-1 {
			m.IPI(c, []*CPU{m.CPU(0)}, nil)
			m.IPI(c, others(m, c), nil)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(m.IPILog()), MaxCPUs; got != want {
		t.Fatalf("%d deliveries logged, want %d", got, want)
	}
}

func TestKernelClockForwardsToCurrentCPU(t *testing.T) {
	params := DefaultParams()
	m := NewMachine(&params, 2, 0)
	kc := m.Clock()
	kc.Advance(100)
	m.SetCurrent(m.CPU(1))
	kc.Advance(30)
	if m.CPU(0).Now() != 100 || m.CPU(1).Now() != 30 {
		t.Fatalf("clocks = %v, %v; want 100, 30", m.CPU(0).Now(), m.CPU(1).Now())
	}
	if kc.Now() != 30 {
		t.Fatalf("kernel clock Now = %v, want current CPU's 30", kc.Now())
	}
	if m.Time() != 100 {
		t.Fatalf("machine time = %v, want max 100", m.Time())
	}
	if kc.mach != m || m.CPU(0).Clock().Machine() != m {
		t.Fatal("Clock.Machine does not resolve the owner")
	}
}

func TestSetCurrentRejectsForeignCPU(t *testing.T) {
	params := DefaultParams()
	m1 := NewMachine(&params, 1, 0)
	m2 := NewMachine(&params, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("foreign CPU accepted")
		}
	}()
	m1.SetCurrent(m2.BootCPU())
}

func TestMachineOfAdoptsFreeClock(t *testing.T) {
	params := DefaultParams()
	clock := &Clock{}
	m := MachineOf(clock, &params)
	if m.NumCPUs() != 1 {
		t.Fatalf("implicit machine has %d CPUs", m.NumCPUs())
	}
	if m.BootCPU().Clock() != clock {
		t.Fatal("adopted clock is not the boot CPU's clock")
	}
	if MachineOf(clock, &params) != m {
		t.Fatal("second MachineOf built a different machine")
	}
	// Advancing the original clock advances the CPU.
	clock.Advance(42)
	if m.BootCPU().Now() != 42 {
		t.Fatalf("CPU did not track adopted clock: %v", m.BootCPU().Now())
	}
	// A machine-owned kernel clock resolves to its machine, not a new one.
	m2 := NewMachine(&params, 2, 0)
	if MachineOf(m2.Clock(), &params) != m2 {
		t.Fatal("MachineOf(kernel clock) built a new machine")
	}
}

func TestIPILamportMerge(t *testing.T) {
	params := DefaultParams()
	m := NewMachine(&params, 3, 0)
	from, t1, t2 := m.CPU(0), m.CPU(1), m.CPU(2)
	from.Advance(10_000)
	t1.Advance(2_000)                      // behind the sender: merges forward
	t2.Advance(10_000 + 2*params.IPISend + // ahead of the send time already
		5_000)

	handled := 0
	m.IPI(from, []*CPU{t1, t2}, func(c *CPU) {
		handled++
		if m.Current() != c {
			t.Fatal("handler not running as the target CPU")
		}
		c.Advance(100)
	})
	if handled != 2 {
		t.Fatalf("handler ran %d times", handled)
	}
	send := Time(10_000 + 2*params.IPISend)
	want1 := send + params.IPIReceive + 100 // merged forward to send time
	want2 := send + 5_000 + params.IPIReceive + 100
	if t1.Now() != want1 {
		t.Fatalf("t1 = %v, want %v", t1.Now(), want1)
	}
	if t2.Now() != want2 {
		t.Fatalf("t2 = %v, want %v", t2.Now(), want2)
	}
	// The sender waits for the last acknowledgement.
	if from.Now() != want2 {
		t.Fatalf("sender = %v, want %v", from.Now(), want2)
	}
	if m.Current() != from {
		t.Fatal("current CPU not restored after IPI")
	}
	if from.Stats().Value("ipis_sent") != 2 {
		t.Fatalf("ipis_sent = %d", from.Stats().Value("ipis_sent"))
	}
	if t1.Stats().Value("ipis_received") != 1 || t2.Stats().Value("ipis_received") != 1 {
		t.Fatal("ipis_received miscounted")
	}
}

func TestIPIEmptyTargetSetIsFree(t *testing.T) {
	params := DefaultParams()
	m := NewMachine(&params, 1, 0)
	m.IPI(m.BootCPU(), nil, func(*CPU) { t.Fatal("handler ran") })
	m.IPI(m.BootCPU(), others(m, m.BootCPU()), func(*CPU) { t.Fatal("handler ran") })
	if m.BootCPU().Now() != 0 {
		t.Fatalf("empty IPI charged %v", m.BootCPU().Now())
	}
}

func TestIPIRejectsSelfTarget(t *testing.T) {
	params := DefaultParams()
	m := NewMachine(&params, 2, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("self-targeted IPI accepted")
		}
	}()
	m.IPI(m.CPU(0), []*CPU{m.CPU(0)}, nil)
}

func TestParamsDumpContainsIPIFields(t *testing.T) {
	p := DefaultParams()
	data, err := MarshalParams(&p)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"IPISend", "IPIReceive", "TLBFullFlush"} {
		if !strings.Contains(string(data), field) {
			t.Fatalf("dump missing %s:\n%s", field, data)
		}
	}
	got, err := LoadParams(strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	if got.IPISend != p.IPISend || got.IPIReceive != p.IPIReceive || got.TLBFullFlush != p.TLBFullFlush {
		t.Fatal("IPI costs lost in round trip")
	}
}

func TestPerCPURNGStreams(t *testing.T) {
	params := DefaultParams()
	a := NewMachine(&params, 2, 7)
	b := NewMachine(&params, 2, 7)
	// Same seed → identical per-CPU streams (determinism).
	for i := 0; i < 100; i++ {
		if a.CPU(0).rng.Uint64() != b.CPU(0).rng.Uint64() ||
			a.CPU(1).rng.Uint64() != b.CPU(1).rng.Uint64() {
			t.Fatal("per-CPU streams not reproducible")
		}
	}
	// Distinct CPUs → decorrelated streams.
	c := NewMachine(&params, 2, 7)
	same := 0
	for i := 0; i < 100; i++ {
		if c.CPU(0).rng.Uint64() == c.CPU(1).rng.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("CPU streams coincide %d/100 times", same)
	}
}

// others returns every CPU of m except c, in ID order.
func others(m *Machine, c *CPU) []*CPU {
	var out []*CPU
	for _, o := range m.cpus {
		if o != c {
			out = append(out, o)
		}
	}
	return out
}
