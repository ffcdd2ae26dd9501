package check

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/sim"
)

// AllConfigs lists every configuration the harness can drive, in the
// order runs report them.
var AllConfigs = []string{"baseline", "fom", "pbm", "ranges", "usermode"}

// Options configure one stress run.
type Options struct {
	// Seed determines the trace completely.
	Seed uint64
	// Ops is the trace length (default 1000).
	Ops int
	// CPUs sizes each world's machine (default 2).
	CPUs int
	// Configs selects the worlds to run differentially (default all).
	Configs []string
	// CheckEvery runs every world's invariant sweep after each
	// CheckEvery operations; 0 checks only at the end.
	CheckEvery int
	// Tier attaches a tier migration engine (Smart policy) to every
	// world, so the differential comparison and the invariant sweeps run
	// with frames migrating between DRAM and NVM underneath the trace.
	// Migrations must preserve byte contents (the readback and final
	// comparisons prove it), TLB freshness (the TLB invariants prove
	// it), and per-tier accounting (the tier invariants prove it).
	// Composes with CrashRecover: hotness state is volatile, but the
	// tier engine is deterministic, so restore-by-reexecution rebuilds
	// it — the snapshot records the tier flag and the recovery replay
	// drives the same tier steps. Migrations dirty their destination
	// frames like any other write, so checkpoint deltas capture them.
	Tier bool
	// Shrink reduces a failing trace to a minimal reproducer.
	Shrink bool
	// ShrinkBudget caps the number of shrink replays (default 400).
	ShrinkBudget int
	// Corrupt deliberately corrupts baseline rmap state after the last
	// operation, via vm.(*Kernel).TestOnlyCorruptRmap. It exists to
	// prove the checker and shrinker catch real metadata corruption;
	// only tests set it.
	Corrupt bool
	// CrashRecover runs the randomized crash-and-recover stage after a
	// successful differential replay: a base checkpoint mid-trace, zero
	// to three dirty-extent deltas with the journal compacted at each,
	// a crash at a seeded op (possibly tearing the journal), recovery,
	// and a demand that the recovered timeline be bit-identical to an
	// uncrashed control and that base + deltas reconstruct memory
	// bit-exactly (see persist_incr.go).
	CrashRecover bool
}

// withDefaults fills in the zero-valued options and rejects the
// invalid ones.
func (o Options) withDefaults() (Options, error) {
	if o.CPUs < 0 || o.CPUs > sim.MaxCPUs {
		return o, fmt.Errorf("check: CPU count %d, want 1 to %d (0 = default)", o.CPUs, sim.MaxCPUs)
	}
	if o.Ops == 0 {
		o.Ops = 1000
	}
	if o.CPUs == 0 {
		o.CPUs = 2
	}
	if len(o.Configs) == 0 {
		o.Configs = AllConfigs
	}
	if o.ShrinkBudget == 0 {
		o.ShrinkBudget = 400
	}
	return o, nil
}

// Failure describes one detected divergence or invariant violation.
type Failure struct {
	// OpIndex is the index of the operation after which the failure was
	// detected; len(trace) means the end-of-run sweep.
	OpIndex int
	// World is the configuration that failed ("" for cross-world
	// divergences reported against the model).
	World string
	// Reason is the human-readable diagnosis.
	Reason string
}

func (f *Failure) Error() string {
	where := "end of run"
	if f.World != "" {
		where = f.World
	}
	return fmt.Sprintf("op %d [%s]: %s", f.OpIndex, where, f.Reason)
}

// Report is the outcome of a Run.
type Report struct {
	Opts    Options
	Trace   []Op     // the generated trace
	Failure *Failure // nil on success
	Shrunk  []Op     // minimal failing trace (with Opts.Shrink)

	// ChainReports describes the crash-and-recover stage (with
	// Opts.CrashRecover, when the stage ran to completion).
	ChainReports []*ChainReport
}

// Format renders the report for humans: the failure, the (shrunk)
// trace, and the command reproducing it.
func (r *Report) Format() string {
	if r.Failure == nil {
		s := fmt.Sprintf("ok: seed=%d ops=%d cpus=%d configs=%s",
			r.Opts.Seed, len(r.Trace), r.Opts.CPUs, strings.Join(r.Opts.Configs, ","))
		if len(r.ChainReports) > 0 {
			cr := r.ChainReports[0]
			s += fmt.Sprintf("\nok: crash-recover base@%d deltas@%v crash@%d (torn=%v): all configs recovered bit-identical, differential images exact",
				cr.BaseAt, cr.DeltaAts, cr.CrashAt, cr.TornBytes > 0)
		}
		return s
	}
	var b strings.Builder
	fmt.Fprintf(&b, "FAIL: seed=%d: %v\n", r.Opts.Seed, r.Failure)
	trace := r.Shrunk
	label := "shrunk trace"
	if trace == nil {
		trace = r.Trace
		label = "trace"
	}
	fmt.Fprintf(&b, "%s (%d ops):\n", label, len(trace))
	for i, op := range trace {
		fmt.Fprintf(&b, "  %4d: %s\n", i, op)
	}
	extra := ""
	if r.Opts.CrashRecover {
		extra = " -crash-recover"
	}
	if r.Opts.Tier {
		extra += " -tier"
	}
	fmt.Fprintf(&b, "reproduce: o1check -seed %d -ops %d -cpus %d -config %s%s\n",
		r.Opts.Seed, r.Opts.Ops, r.Opts.CPUs, strings.Join(r.Opts.Configs, ","), extra)
	return b.String()
}

// Run generates the seeded trace, replays it differentially against
// every selected configuration, and (on failure, when requested)
// shrinks the trace to a minimal reproducer. The returned error
// reports setup problems only; test outcomes are in the Report.
func Run(opts Options) (*Report, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	worlds, _, err := newWorlds(opts)
	if err != nil {
		return nil, err
	}
	trace := generate(opts.Seed, opts.Ops, opts.CPUs)
	report := &Report{Opts: opts, Trace: trace}
	report.Failure = replayOn(trace, opts, worlds)
	if report.Failure == nil && opts.CrashRecover {
		baseAt, deltaAts, crashAt, torn := incrementalStage(opts, len(trace))
		crs, f, err := CrashRecoverIncremental(opts, baseAt, deltaAts, crashAt, torn)
		if err != nil {
			return nil, err
		}
		report.ChainReports = crs
		if f != nil {
			// Crash-recover failures are not shrinkable: the shrink
			// predicate replays without the persistence stage.
			f.Reason = "crash-recover: " + f.Reason
			report.Failure = f
			return report, nil
		}
	}
	if report.Failure == nil || !opts.Shrink {
		return report, nil
	}

	// Shrink on the failing prefix: operations past the failure point
	// cannot matter.
	prefix := trace
	if report.Failure.OpIndex < len(trace) {
		prefix = trace[:report.Failure.OpIndex+1]
	}
	budget := opts.ShrinkBudget
	report.Shrunk = shrinkTrace(prefix, func(cand []Op) bool {
		if budget <= 0 {
			return false
		}
		budget--
		return replay(cand, opts) != nil
	})
	return report, nil
}

// RunMany replays `seeds` consecutive seeds starting at opts.Seed,
// fanned out over `workers` host goroutines — the harness's
// host-parallel mode. Each seed's run builds its own worlds and shares
// nothing with its siblings, so the returned reports (in seed order)
// are identical whatever the worker count or host interleaving; only
// wall-clock time changes. A non-nil error reports the first setup
// failure; test outcomes are in the Reports.
func RunMany(opts Options, seeds, workers int) ([]*Report, error) {
	if seeds < 1 {
		seeds = 1
	}
	if workers < 1 {
		workers = 1
	}
	if workers > seeds {
		workers = seeds
	}
	reports := make([]*Report, seeds)
	errs := make([]error, seeds)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				o := opts
				o.Seed = opts.Seed + uint64(i)
				reports[i], errs[i] = Run(o)
			}
		}()
	}
	for i := 0; i < seeds; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return reports, nil
}

// newWorlds builds one fresh world per selected configuration. On
// error it also returns the configuration that failed.
func newWorlds(opts Options) ([]*world, string, error) {
	worlds := make([]*world, len(opts.Configs))
	for i, cfg := range opts.Configs {
		w, err := newWorld(cfg, opts.CPUs, opts.Seed, opts.Tier)
		if err != nil {
			return nil, cfg, err
		}
		worlds[i] = w
	}
	return worlds, "", nil
}

// replay builds fresh worlds and applies the trace to them with
// replayOn.
func replay(trace []Op, opts Options) *Failure {
	worlds, cfg, err := newWorlds(opts)
	if err != nil {
		return &Failure{World: cfg, Reason: fmt.Sprintf("world setup: %v", err)}
	}
	return replayOn(trace, opts, worlds)
}

// replayOn applies the trace to fresh worlds, checking invariants at
// the configured interval, comparing reads as they happen, and
// sweeping invariants plus final contents at the end. A nil return
// means the trace passes.
func replayOn(trace []Op, opts Options, worlds []*world) *Failure {
	mdl := newModel(opts.CPUs)
	for i, op := range trace {
		if f := step(mdl, worlds, i, op); f != nil {
			return f
		}
		if opts.CheckEvery > 0 && (i+1)%opts.CheckEvery == 0 {
			for _, w := range worlds {
				if err := w.check(); err != nil {
					return &Failure{OpIndex: i, World: w.name, Reason: err.Error()}
				}
			}
		}
	}

	if opts.Corrupt {
		for _, w := range worlds {
			if vb, ok := w.b.(*vmBackend); ok {
				vb.k.TestOnlyCorruptRmap()
			}
		}
	}

	end := len(trace)
	for _, w := range worlds {
		if err := w.check(); err != nil {
			return &Failure{OpIndex: end, World: w.name, Reason: err.Error()}
		}
	}
	return finalCompare(mdl, worlds, end)
}

// finalCompare verifies that every world's observable end state —
// byte 0 of every page of every live object, per mapping process, and
// of every live file — matches the model.
func finalCompare(mdl *model, worlds []*world, end int) *Failure {
	for _, obj := range sortedKeys(mdl.objects) {
		o := mdl.objects[obj]
		for _, proc := range sortedKeys(o.procs) {
			content := o.bytes(proc)
			for page := uint64(0); page < o.pages; page++ {
				for _, w := range worlds {
					got, err := w.readback(obj, proc, page)
					if err != nil {
						return &Failure{OpIndex: end, World: w.name,
							Reason: fmt.Sprintf("final state: obj %d proc %d page %d: %v", obj, proc, page, err)}
					}
					if got != content[page] {
						return &Failure{OpIndex: end, World: w.name,
							Reason: fmt.Sprintf("final state: obj %d proc %d page %d holds %#02x, want %#02x",
								obj, proc, page, got, content[page])}
					}
				}
			}
		}
	}
	paths := make([]string, 0, len(mdl.files))
	for p := range mdl.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, path := range paths {
		content := mdl.files[path]
		for page := range content {
			for _, w := range worlds {
				got, err := w.fileByte(path, uint64(page))
				if err != nil {
					return &Failure{OpIndex: end, World: w.name,
						Reason: fmt.Sprintf("final state: file %q page %d: %v", path, page, err)}
				}
				if got != content[page] {
					return &Failure{OpIndex: end, World: w.name,
						Reason: fmt.Sprintf("final state: file %q page %d holds %#02x, want %#02x",
							path, page, got, content[page])}
				}
			}
		}
	}
	return nil
}
