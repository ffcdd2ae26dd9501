package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// layerFile is the tracked layer-benchmark baseline (BENCH_layers.json):
// the allocations per op of every layer benchmark, measured by one
// fixed `go test -bench` command. Allocation counts do not depend on
// how fast or how loaded the host is, so the gate compares them
// exactly; wall-clock times are not recorded here.
type layerFile struct {
	// Command is how the benchmark output was produced; the gate is
	// only meaningful against output of the same command.
	Command    string       `json:"command"`
	Benchmarks []layerBench `json:"benchmarks"`
	// Ungated lists benchmarks whose count is recorded for information
	// only, each with the reason it is not exact across runs.
	Ungated []layerBench `json:"ungated,omitempty"`
}

type layerBench struct {
	Name        string `json:"name"` // import path, a dot, benchmark name without the -GOMAXPROCS suffix
	AllocsPerOp int64  `json:"allocs_per_op"`
	Reason      string `json:"reason,omitempty"`
}

// parseBenchOutput reads `go test -bench -benchmem` output and returns
// each benchmark's allocs/op, keyed as in layerBench.Name. A benchmark
// line without an allocs/op figure is an error: the run lacked
// -benchmem, and a missing number must not read as zero.
func parseBenchOutput(r io.Reader) (map[string]int64, error) {
	out := make(map[string]int64)
	pkg := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if p, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(p)
			continue
		}
		f := strings.Fields(line)
		if len(f) < 3 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue // a log line that happens to start with the name
		}
		name := f[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		key := pkg + "." + name
		allocs := int64(-1)
		for i := 2; i+1 < len(f); i++ {
			if f[i+1] == "allocs/op" {
				n, err := strconv.ParseInt(f[i], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("%s: allocs/op %q: %v", key, f[i], err)
				}
				allocs = n
			}
		}
		if allocs < 0 {
			return nil, fmt.Errorf("%s: no allocs/op in %q (run with -benchmem)", key, line)
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("%s: reported twice", key)
		}
		out[key] = allocs
	}
	return out, sc.Err()
}

// runLayers gates benchmark output against the tracked layer file: it
// fails when any gated benchmark allocates more per op than recorded,
// or is missing from the output. Fewer allocations, ungated and new
// benchmarks are reported, not failed; -write records the output as
// the new baseline instead, keeping the file's command and its ungated
// names and reasons.
func runLayers(path, benchPath string, write bool) error {
	f, err := os.Open(benchPath)
	if err != nil {
		return err
	}
	got, err := parseBenchOutput(f)
	f.Close()
	if err != nil {
		return err
	}
	if len(got) == 0 {
		return fmt.Errorf("%s: no benchmark results", benchPath)
	}
	lf := layerFile{Command: "make bench-layers"}
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &lf); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
	case !write || !os.IsNotExist(err):
		return err
	}
	reasons := make(map[string]string, len(lf.Ungated))
	for _, u := range lf.Ungated {
		reasons[u.Name] = u.Reason
	}
	if write {
		out := layerFile{Command: lf.Command}
		for name, n := range got {
			if r, ok := reasons[name]; ok {
				out.Ungated = append(out.Ungated, layerBench{Name: name, AllocsPerOp: n, Reason: r})
			} else {
				out.Benchmarks = append(out.Benchmarks, layerBench{Name: name, AllocsPerOp: n})
			}
		}
		for _, l := range [][]layerBench{out.Benchmarks, out.Ungated} {
			sort.Slice(l, func(i, j int) bool { return l[i].Name < l[j].Name })
		}
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		fmt.Printf("benchdiff: recorded %d gated and %d ungated layer benchmarks in %s\n", len(out.Benchmarks), len(out.Ungated), path)
		return os.WriteFile(path, append(b, '\n'), 0o644)
	}

	failed := 0
	tracked := make(map[string]bool, len(lf.Benchmarks)+len(lf.Ungated))
	for _, u := range lf.Ungated {
		tracked[u.Name] = true
		fmt.Printf("  %-62s ungated   %8d -> %8d allocs/op (%s)\n", u.Name, u.AllocsPerOp, got[u.Name], u.Reason)
	}
	for _, lb := range lf.Benchmarks {
		tracked[lb.Name] = true
		n, ok := got[lb.Name]
		status := "ok"
		switch {
		case !ok:
			status = "MISSING"
			failed++
		case n > lb.AllocsPerOp:
			status = "REGRESSED"
			failed++
		case n < lb.AllocsPerOp:
			status = "improved" // refresh the file with -write to keep the gain
		}
		if !ok {
			fmt.Printf("  %-62s %-9s %8d allocs/op -> (not run)\n", lb.Name, status, lb.AllocsPerOp)
			continue
		}
		fmt.Printf("  %-62s %-9s %8d -> %8d allocs/op\n", lb.Name, status, lb.AllocsPerOp, n)
	}
	var fresh []string
	for name := range got {
		if !tracked[name] {
			fresh = append(fresh, name)
		}
	}
	sort.Strings(fresh)
	for _, name := range fresh {
		fmt.Printf("  %-62s NEW       %8d allocs/op (ungated until recorded)\n", name, got[name])
	}
	if failed > 0 {
		return fmt.Errorf("%d layer benchmark(s) allocate more than %s records, or did not run (command: %s)", failed, path, lf.Command)
	}
	return nil
}
