// Package bench defines the reproduction experiments: one Experiment
// per table or figure in the paper (and per design mechanism turned
// into a measurement), each rebuilding a fresh simulated machine and
// printing the same rows/series the paper reports.
//
// The experiments are consumed by cmd/o1bench (human-readable tables)
// and by the repository-root bench_test.go (one testing.B benchmark
// per experiment).
package bench

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/metrics"
	"repro/internal/pagetable"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Result is one experiment's output.
type Result struct {
	ID     string
	Title  string
	Paper  string // which paper artifact this regenerates
	Tables []*metrics.Table
	Notes  []string
}

// String renders the result for terminal output.
func (r *Result) String() string {
	out := fmt.Sprintf("== %s — %s\n   reproduces: %s\n\n", r.ID, r.Title, r.Paper)
	for _, t := range r.Tables {
		out += t.String() + "\n"
	}
	for _, n := range r.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// Markdown renders the result as GitHub-flavoured markdown.
func (r *Result) Markdown() string {
	out := fmt.Sprintf("## %s — %s\n\n*Reproduces: %s*\n\n", r.ID, r.Title, r.Paper)
	for _, t := range r.Tables {
		out += t.Markdown() + "\n"
	}
	for _, n := range r.Notes {
		out += "> " + n + "\n\n"
	}
	return out
}

// Experiment is one runnable reproduction unit.
type Experiment struct {
	ID    string
	Title string
	Paper string
	Run   func() (*Result, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("bench: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// All returns every experiment, sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID looks up one experiment.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// customParams, when set via SetParams, replaces the default cost
// table for every machine the experiments build.
var customParams *sim.Params

// SetParams overrides the cost table used by NewMachine (nil restores
// the calibrated defaults). It exists so cmd/o1bench can load a user-
// supplied table and re-run the whole evaluation under it.
func SetParams(p *sim.Params) { customParams = p }

// machineParams returns the active cost table.
func machineParams() sim.Params {
	if customParams != nil {
		return *customParams
	}
	return sim.DefaultParams()
}

// benchCPUs is the CPU count NewMachine uses (the -cpus flag).
var benchCPUs = 1

// SetCPUs sets the simulated CPU count for every machine the
// experiments build; it rejects a count outside 1..sim.MaxCPUs. It exists so the
// commands can plumb their -cpus flag through.
func SetCPUs(n int) error {
	if n < 1 || n > sim.MaxCPUs {
		return fmt.Errorf("bench: CPU count %d, want 1 to %d", n, sim.MaxCPUs)
	}
	benchCPUs = n
	return nil
}

// CPUCount returns the configured CPU count.
func CPUCount() int { return benchCPUs }

// benchHostPar selects host-parallel execution (the -hostpar flag):
// each simulated CPU's context runs on its own host goroutine inside
// the experiments' RunParallel phases. Simulated numbers are identical
// either way — only wall-clock time changes.
var benchHostPar = false

// SetHostParallel plumbs cmd/o1bench's -hostpar flag through to every
// machine the experiments build.
func SetHostParallel(on bool) { benchHostPar = on }

// HostParallel returns the configured host-parallel setting.
func HostParallel() bool { return benchHostPar }

// newSimMachine builds a simulator machine with the configured
// host-parallel setting applied. Every experiment machine is built
// through here so the -hostpar flag reaches them all.
func newSimMachine(params *sim.Params, n int) *sim.Machine {
	m := sim.NewMachine(params, n, 0)
	m.SetHostParallel(benchHostPar)
	return m
}

// Machine is the standard experiment machine: 2 GiB of DRAM for the
// baseline's page pool and page tables, 6 GiB of NVM split between a
// tmpfs, a PMFS and the file-only-memory store.
type Machine struct {
	Sim    *sim.Machine
	Clock  *sim.Clock // the machine's kernel clock
	Params *sim.Params
	Memory *mem.Memory
	Kernel *vm.Kernel
	Tmpfs  *memfs.FS // page-granular, the paper's tmpfs measurements
	Pmfs   *memfs.FS // extent-granular persistent fs (Figure 7)
	FOM    *core.System
	// PoolFrames is the size of the baseline kernel's frame pool —
	// what ShardPool splits into per-CPU arenas.
	PoolFrames uint64
}

// ShardPool carves the baseline kernel's pool into one arena per CPU
// so host-parallel phases never contend on shared frame allocation.
// With one CPU it is a no-op and the machine stays exactly as the
// serial experiments have always used it.
func (m *Machine) ShardPool() error {
	return carveBenchArenas(m.Kernel, m.PoolFrames)
}

// NewMachine builds the standard machine with the configured CPU count
// (SetCPUs; default 1). tmpfs lives in DRAM (it is a RAM file system);
// PMFS and the file-only-memory store live in NVM.
func NewMachine() (*Machine, error) {
	return NewMachineN(benchCPUs)
}

// NewMachineN builds the standard machine with n CPUs.
func NewMachineN(n int) (*Machine, error) {
	const (
		poolFrames  = uint64(2) << 30 >> mem.FrameShift // 2 GiB baseline pool
		tmpfsFrames = uint64(1) << 30 >> mem.FrameShift // 1 GiB tmpfs (DRAM)
		dramFrames  = poolFrames + tmpfsFrames
		nvmFrames   = uint64(5) << 30 >> mem.FrameShift
		pmfsFrames  = uint64(1) << 30 >> mem.FrameShift // 1 GiB PMFS (NVM)
	)
	params := machineParams()
	machine := newSimMachine(&params, n)
	clock := machine.Clock()
	memory, err := mem.New(clock, &params, mem.Config{DRAMFrames: dramFrames, NVMFrames: nvmFrames})
	if err != nil {
		return nil, err
	}
	kernel, err := vm.NewKernel(clock, &params, memory, vm.Config{PoolBase: 0, PoolFrames: poolFrames})
	if err != nil {
		return nil, err
	}
	tmpfs, err := memfs.New("tmpfs", memfs.PerPage, clock, &params, memory, mem.Frame(poolFrames), tmpfsFrames)
	if err != nil {
		return nil, err
	}
	nvm, _ := memory.Region(mem.NVM)
	pmfs, err := memfs.New("pmfs", memfs.Extent, clock, &params, memory, nvm.Start, pmfsFrames)
	if err != nil {
		return nil, err
	}
	fom, err := core.NewSystem(clock, &params, memory, core.Options{
		FSBase:   nvm.Start + mem.Frame(pmfsFrames),
		FSFrames: nvm.Count - pmfsFrames,
	})
	if err != nil {
		return nil, err
	}
	return &Machine{
		Sim:        machine,
		Clock:      clock,
		Params:     &params,
		Memory:     memory,
		Kernel:     kernel,
		Tmpfs:      tmpfs,
		Pmfs:       pmfs,
		FOM:        fom,
		PoolFrames: poolFrames,
	}, nil
}

// us formats a sim.Time as fractional microseconds.
func us(t sim.Time) string { return fmt.Sprintf("%.2f", t.Microseconds()) }

// ratio formats a/b.
func ratio(a, b sim.Time) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", float64(a)/float64(b))
}

// timeOp runs fn and returns the virtual time it consumed. On a
// multi-CPU machine the measurement is machine-wide (max over CPU
// clocks), so work fanned out to other CPUs — shootdown IPI handlers —
// is included; per-CPU Now() would miss it and mis-measure across CPU
// switches.
// The barrier (Sync) before t0 is what makes the delta meaningful:
// without it, work charged to a CPU that lags the machine-wide
// maximum is masked and reads as zero elapsed time.
func timeOp(clock *sim.Clock, fn func() error) (sim.Time, error) {
	if mach := clock.Machine(); mach != nil {
		mach.Sync()
		t0 := mach.Time()
		err := fn()
		return mach.Time() - t0, err
	}
	t0 := clock.Now()
	err := fn()
	return clock.Since(t0), err
}

// Protection shorthands shared by every experiment file.
const (
	rw = pagetable.FlagRead | pagetable.FlagWrite | pagetable.FlagUser
	ro = pagetable.FlagRead | pagetable.FlagUser
)
