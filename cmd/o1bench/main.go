// Command o1bench regenerates every table and figure of the paper's
// evaluation from the simulator. Each experiment builds a fresh
// machine, runs the paper's workload on both the baseline VM and
// file-only memory, and prints the rows the paper reports.
//
// Experiments are independent, so the suite runs on a worker pool
// (-parallel, default GOMAXPROCS). Scheduling cannot change any
// simulated number — results are printed in selection order and are
// byte-identical to a serial run.
//
// Usage:
//
//	o1bench -list             # show available experiments
//	o1bench                   # run everything
//	o1bench -e fig6a,fig9     # run selected experiments
//	o1bench -parallel 1 -benchjson BENCH_wallclock.json
//	o1bench -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"time"

	"repro/internal/bench"
	"repro/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "o1bench:", err)
		os.Exit(1)
	}
}

func run() error {
	list := flag.Bool("list", false, "list experiments and exit")
	exps := flag.String("e", "all", "comma-separated experiment IDs, or 'all'")
	format := flag.String("format", "text", "output format: text | md")
	paramsFile := flag.String("params", "", "JSON cost-table file overriding the calibrated defaults")
	dumpParams := flag.Bool("dump-params", false, "print the default cost table as JSON and exit")
	cpus := flag.Int("cpus", 1, "simulated CPU count for every experiment machine (1 to 64)")
	hostpar := flag.Bool("hostpar", false, "run each experiment's simulated CPU contexts on host goroutines (simulated numbers unchanged; wall-clock drops)")
	tierPolicy := flag.String("tier-policy", "all", "tiering experiment policy sweep: 'all' or a comma list of none,promote,demote,smart")
	fastRatio := flag.String("fast-ratio", "all", "tiering experiment fast-tier sizes: 'all' or a comma list of fractions of the working set like 1/8,1/2")
	traceFile := flag.String("trace", "", "write a runtime execution trace of the suite to this file (goroutines are labeled sim_cpu=N)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "experiment worker count (1 = serial, enables per-experiment alloc counts)")
	benchJSON := flag.String("benchjson", "", "write per-experiment wall-clock times as JSON to this file")
	force := flag.Bool("force", false, "overwrite an existing -benchjson file even if it was measured on a differently shaped host")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the suite to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the suite) to this file")
	flag.Parse()

	if err := bench.SetCPUs(*cpus); err != nil {
		return err
	}
	bench.SetHostParallel(*hostpar)
	if err := bench.SetTierPolicies(*tierPolicy); err != nil {
		return err
	}
	if err := bench.SetTierRatios(*fastRatio); err != nil {
		return err
	}

	if *dumpParams {
		def := sim.DefaultParams()
		data, err := sim.MarshalParams(&def)
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	if *paramsFile != "" {
		f, err := os.Open(*paramsFile)
		if err != nil {
			return err
		}
		p, err := sim.LoadParams(f)
		f.Close()
		if err != nil {
			return err
		}
		bench.SetParams(&p)
	}

	if *list {
		fmt.Println("available experiments:")
		for _, e := range bench.All() {
			fmt.Printf("  %-14s %s\n                 reproduces: %s\n", e.ID, e.Title, e.Paper)
		}
		return nil
	}

	selected, err := bench.Select(*exps)
	if err != nil {
		return fmt.Errorf("%v (try -list)", err)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			return err
		}
		defer trace.Stop()
	}

	t0 := time.Now()
	reports := bench.RunSuite(selected, *parallel)
	total := time.Since(t0)

	failed := 0
	for _, r := range reports {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "o1bench: %s failed: %v\n", r.ID, r.Err)
			failed++
			continue
		}
		if *format == "md" {
			fmt.Println(r.Result.Markdown())
		} else {
			fmt.Println(r.Result.String())
		}
	}

	if *benchJSON != "" {
		suite := bench.NewSuiteReport(reports, *parallel, total)
		// Wall-clock numbers are only comparable when measured on the
		// same host shape; refuse to silently replace the tracked
		// baseline with numbers from a different one.
		if prev, err := os.Open(*benchJSON); err == nil {
			old, perr := bench.ReadSuiteReport(prev)
			prev.Close()
			if perr == nil && !*force {
				if d := suite.ShapeMismatch(old); d != "" {
					return fmt.Errorf("refusing to overwrite %s: host shape changed (%s); rerun with -force to replace the baseline", *benchJSON, d)
				}
			}
		}
		f, err := os.Create(*benchJSON)
		if err != nil {
			return err
		}
		werr := suite.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		runtime.GC()
		werr := pprof.WriteHeapProfile(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
	}

	if failed > 0 {
		return fmt.Errorf("%d experiment(s) failed", failed)
	}
	return nil
}
