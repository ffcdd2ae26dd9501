// Package o1mem is a reproduction of "Towards O(1) Memory" (Michael M.
// Swift, HotOS 2017): file-only memory, physically based mappings, and
// range translations, built on a deterministic full-system
// memory-management simulator written in pure Go.
//
// The implementation lives under internal/:
//
//   - internal/sim        virtual clock, calibrated cost model, RNG
//   - internal/mem        physical frames, DRAM/NVM regions, O(1) erase
//   - internal/buddy      binary buddy allocator (Linux-style)
//   - internal/slab       slab object caches (Bonwick)
//   - internal/pagetable  4/5-level radix page tables, huge pages,
//     shared subtrees, pre-created tables
//   - internal/tlb        split L1 + unified L2 set-associative TLB
//   - internal/rangetable range table + range TLB (the §4.3 hardware)
//   - internal/vm         baseline Linux-like VM: VMAs, demand paging,
//     COW fork, LRU reclaim, swap
//   - internal/memfs      tmpfs (per-page) and PMFS (extent) memory
//     file systems with durability and discard
//   - internal/core       the paper's contribution: file-only memory
//   - internal/heap       user-level malloc on file-only memory
//   - internal/workload   deterministic workload generators
//   - internal/fsshell    scriptable file-system shell (cmd/o1fs)
//   - internal/bench      one experiment per paper table/figure
//
// This root package exposes the experiment registry so downstream
// tooling can regenerate the paper's evaluation without reaching into
// internal packages; cmd/o1bench, cmd/o1check, cmd/o1snap and cmd/o1fs
// are the command-line entry points.
package o1mem

import (
	"fmt"

	"repro/internal/bench"
)

// Experiments returns the IDs of every reproduction experiment, one
// per table or figure in the paper (see DESIGN.md §4 for the index).
func Experiments() []string {
	all := bench.All()
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.ID
	}
	return out
}

// Describe returns the title and reproduced paper artifact of an
// experiment.
func Describe(id string) (title, paper string, err error) {
	e, ok := bench.ByID(id)
	if !ok {
		return "", "", fmt.Errorf("o1mem: unknown experiment %q", id)
	}
	return e.Title, e.Paper, nil
}

// RunExperiment executes one experiment on a fresh simulated machine
// and returns its rendered tables.
func RunExperiment(id string) (string, error) {
	e, ok := bench.ByID(id)
	if !ok {
		return "", fmt.Errorf("o1mem: unknown experiment %q", id)
	}
	r, err := e.Run()
	if err != nil {
		return "", err
	}
	return r.String(), nil
}
