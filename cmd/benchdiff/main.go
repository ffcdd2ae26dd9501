// Command benchdiff compares two o1bench -benchjson reports and fails
// when wall-clock time regressed. It is the CI gate behind
// `make bench-compare`: re-measure the suite, diff against the tracked
// baseline, and refuse changes that slow any experiment (or the whole
// suite) down by more than -max-regress.
//
// Wall-clock numbers are only comparable between runs on the same host
// shape (CPU count, GOMAXPROCS, simulated CPUs, parallelism settings).
// When the shapes differ, benchdiff prints the difference and exits 0
// — a skipped comparison, not a failure — so the gate is inert on
// hosts that don't match the tracked baseline.
//
// With -layers it is instead the layer allocation gate: it reads
// `go test -bench -benchmem` output (-bench) and fails when any layer
// benchmark tracked in the given file allocates more per op than
// recorded there, or did not run. Allocation counts are independent of
// the host, so this gate never skips. -write records the output as the
// new baseline (`make bench-layers-update`).
//
// Usage:
//
//	benchdiff -old BENCH_wallclock.json -new BENCH_wallclock.ci.json
//	benchdiff -old old.json -new new.json -max-regress 0.25 -min-ms 50
//	benchdiff -layers BENCH_layers.json -bench layers.txt
//	benchdiff -layers BENCH_layers.json -bench layers.txt -write
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run() error {
	oldPath := flag.String("old", "", "baseline -benchjson report")
	newPath := flag.String("new", "", "candidate -benchjson report")
	maxRegress := flag.Float64("max-regress", 0.25, "maximum tolerated slowdown (0.25 = 25%)")
	minMS := flag.Float64("min-ms", 50, "ignore experiments whose baseline wall-clock is below this (too noisy to gate on)")
	layersPath := flag.String("layers", "", "tracked layer-benchmark file: gate -bench output's allocs/op against it")
	benchPath := flag.String("bench", "", "go test -bench -benchmem output (with -layers)")
	write := flag.Bool("write", false, "with -layers: record the -bench output as the new baseline")
	flag.Parse()
	if *layersPath != "" {
		if *benchPath == "" {
			return fmt.Errorf("-layers needs -bench")
		}
		return runLayers(*layersPath, *benchPath, *write)
	}
	if *oldPath == "" || *newPath == "" {
		return fmt.Errorf("both -old and -new are required")
	}

	oldRep, err := readReport(*oldPath)
	if err != nil {
		return err
	}
	newRep, err := readReport(*newPath)
	if err != nil {
		return err
	}

	if d := oldRep.ShapeMismatch(newRep); d != "" {
		fmt.Printf("benchdiff: skipping comparison, host shape differs (%s)\n", d)
		return nil
	}

	oldByID := make(map[string]float64, len(oldRep.Experiments))
	for _, e := range oldRep.Experiments {
		oldByID[e.ID] = e.WallMS
	}

	failed := 0
	var oldTotal, newTotal float64 // over experiments present in both
	var newIDs []string            // experiments with no baseline row
	for _, e := range newRep.Experiments {
		base, ok := oldByID[e.ID]
		if !ok {
			fmt.Printf("  %-16s NEW      %8.1f ms (no baseline, excluded from total)\n", e.ID, e.WallMS)
			newIDs = append(newIDs, e.ID)
			continue
		}
		oldTotal += base
		newTotal += e.WallMS
		ratio := e.WallMS / base
		status := "ok"
		if base >= *minMS && ratio > 1+*maxRegress {
			status = "REGRESSED"
			failed++
		}
		fmt.Printf("  %-16s %-9s %8.1f ms -> %8.1f ms (%+.1f%%)\n",
			e.ID, status, base, e.WallMS, (ratio-1)*100)
	}

	totalRatio := newTotal / oldTotal
	summary := fmt.Sprintf("  %-16s %-9s %8.1f ms -> %8.1f ms (%+.1f%%)",
		"TOTAL(common)", "", oldTotal, newTotal, (totalRatio-1)*100)
	if len(newIDs) > 0 {
		// Name what the total does NOT cover, so a baseline refresh that
		// picks up the new experiments is an explicit follow-up, not a
		// silent hole in the gate.
		summary += fmt.Sprintf(" [new, ungated: %s]", strings.Join(newIDs, ", "))
	}
	fmt.Println(summary)
	if totalRatio > 1+*maxRegress {
		failed++
	}

	if failed > 0 {
		return fmt.Errorf("%d wall-clock regression(s) beyond %.0f%%", failed, *maxRegress*100)
	}
	return nil
}

func readReport(path string) (*bench.SuiteReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return bench.ReadSuiteReport(f)
}
