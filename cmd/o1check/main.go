// Command o1check runs the kernel invariant checker's differential
// stress harness: a seeded random operation sequence is executed
// against the selected memory-system configurations (baseline VM,
// file-only memory via read/write, PBM-mapped file-only memory in
// shared-page-table and range-translation modes, and user-mode
// software-managed memory over granted extents), with machine-wide
// invariant sweeps at a configurable interval and a full cross-
// configuration comparison of observable outcomes. On failure it
// prints the seed, a (shrunk) minimal operation trace, and the exact
// command that reproduces it, then exits non-zero.
//
// With -crash-recover a clean replay is followed by a crash: the run
// checkpoints a chain (a base snapshot plus zero to three dirty-extent
// deltas, the journal compacted at each), crashes at a seeded op,
// possibly tearing the journal, then recovers and proves the run
// bit-identical to an uncrashed control and the assembled differential
// image exact.
//
// With -seeds N the harness sweeps N consecutive seeds; -hostpar (or
// an explicit -workers M) fans the sweep out over host goroutines.
// Each seed's run is fully isolated, so the verdicts are identical
// whatever the worker count.
//
// Usage:
//
//	o1check -seed 1 -ops 50000 -cpus 4
//	o1check -seed 7 -ops 20000 -config baseline,ranges -check-every 512
//	o1check -seed 3 -ops 20000 -crash-recover -repro fail.trace
//	o1check -seed 3 -ops 20000 -tier -crash-recover
//	o1check -seed 1 -seeds 32 -ops 5000 -hostpar
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/check"
)

func main() {
	var (
		seed         = flag.Uint64("seed", 1, "random seed (determines the whole trace)")
		ops          = flag.Int("ops", 50000, "number of operations to generate")
		cpus         = flag.Int("cpus", 4, "CPUs per simulated machine")
		config       = flag.String("config", "all", "comma-separated configurations (baseline,fom,pbm,ranges,usermode) or 'all'")
		checkEvery   = flag.Int("check-every", 1024, "run invariant sweeps every N ops (0 = only at the end)")
		shrink       = flag.Bool("shrink", true, "shrink failing traces to a minimal reproducer")
		crashRecover = flag.Bool("crash-recover", false, "after a clean replay, checkpoint a base + 0-3 dirty-extent deltas with journal compaction, crash at a seeded op, and verify recovery and the differential image")
		tiered       = flag.Bool("tier", false, "attach a tier migration engine (smart policy) to every world: frames migrate between DRAM and NVM under the trace")
		repro        = flag.String("repro", "", "on failure, write the (shrunk) failing trace to this file")
		seeds        = flag.Int("seeds", 1, "number of consecutive seeds to sweep, starting at -seed")
		workers      = flag.Int("workers", 1, "host goroutines for the seed sweep (0 = GOMAXPROCS)")
		hostpar      = flag.Bool("hostpar", false, "shorthand for -workers 0: sweep seeds on GOMAXPROCS host goroutines")
	)
	flag.Parse()

	configs := check.AllConfigs
	if *config != "all" && *config != "" {
		configs = strings.Split(*config, ",")
	}
	nWorkers := *workers
	if *hostpar && nWorkers == 1 {
		nWorkers = 0
	}
	if nWorkers == 0 {
		nWorkers = runtime.GOMAXPROCS(0)
	}
	reports, err := check.RunMany(check.Options{
		Seed:         *seed,
		Ops:          *ops,
		CPUs:         *cpus,
		Configs:      configs,
		CheckEvery:   *checkEvery,
		Shrink:       *shrink,
		CrashRecover: *crashRecover,
		Tier:         *tiered,
	}, *seeds, nWorkers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "o1check: %v\n", err)
		os.Exit(2)
	}
	failed := false
	for _, report := range reports {
		fmt.Println(report.Format())
		if report.Failure == nil {
			continue
		}
		failed = true
		if *repro != "" {
			trace := report.Shrunk
			if trace == nil {
				trace = report.Trace
			}
			name := *repro
			if len(reports) > 1 {
				name = fmt.Sprintf("%s.seed%d", *repro, report.Opts.Seed)
			}
			if werr := os.WriteFile(name, check.EncodeTrace(trace), 0o644); werr != nil {
				fmt.Fprintf(os.Stderr, "o1check: writing reproducer: %v\n", werr)
			} else {
				fmt.Fprintf(os.Stderr, "o1check: wrote %d-op reproducer trace to %s\n", len(trace), name)
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}
