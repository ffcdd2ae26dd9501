package bench

import (
	"testing"
)

// runSuiteStrings runs every registered experiment under the given
// CPU-count / host-parallel configuration and returns the rendered
// results keyed by experiment ID.
func runSuiteStrings(t *testing.T, cpus int, hostpar bool) map[string]string {
	t.Helper()
	if err := SetCPUs(cpus); err != nil {
		t.Fatal(err)
	}
	SetHostParallel(hostpar)
	out := make(map[string]string, len(registry))
	for _, e := range All() {
		r, err := e.Run()
		if err != nil {
			t.Fatalf("cpus=%d hostpar=%v: experiment %s failed: %v", cpus, hostpar, e.ID, err)
		}
		out[e.ID] = r.String()
	}
	return out
}

// TestSerialVsHostParallelMatrix is the bench-layer half of the
// determinism contract (the sim- and vm-layer halves live in their own
// packages): for every registered experiment, at every supported CPU
// count, the rendered result must be byte-identical whether the
// simulated CPU contexts ran one at a time or on real host goroutines.
// Experiments without a RunParallel phase satisfy this trivially; the
// ones with one (fig9, scale, metadata) are where the protocol is
// actually on trial.
func TestSerialVsHostParallelMatrix(t *testing.T) {
	oldCPUs, oldPar := CPUCount(), HostParallel()
	defer func() {
		SetCPUs(oldCPUs)
		SetHostParallel(oldPar)
	}()

	counts := []int{1, 2, 4, 8}
	if testing.Short() {
		counts = []int{1, 4}
	}
	for _, cpus := range counts {
		serial := runSuiteStrings(t, cpus, false)
		par := runSuiteStrings(t, cpus, true)
		for id, want := range serial {
			if got := par[id]; got != want {
				t.Errorf("cpus=%d: experiment %s diverged under -hostpar\n--- serial ---\n%s\n--- hostpar ---\n%s",
					cpus, id, want, got)
			}
		}
	}
}

// TestHostParallelDefaultOutputStable pins the default configuration:
// at -cpus 1 the parallel helpers must degenerate to exactly the
// historical serial code paths, so a 1-CPU serial run and a 1-CPU
// host-parallel run agree with each other (covered above) and the
// split helpers hand the whole workload to CPU 0.
func TestHostParallelDefaultOutputStable(t *testing.T) {
	shares := splitPages(1000, 1)
	if len(shares) != 1 || shares[0] != 1000 {
		t.Fatalf("splitPages(1000, 1) = %v", shares)
	}
	idx := []uint64{5, 1, 900, 0}
	parts := partitionTouches(idx, shares)
	if len(parts) != 1 {
		t.Fatalf("partitionTouches produced %d partitions", len(parts))
	}
	for i, p := range parts[0] {
		if p != idx[i] {
			t.Fatalf("partitionTouches reordered the 1-CPU trace: %v", parts[0])
		}
	}
}

// TestSplitPagesExact: shares sum to the total and differ by at most
// one page, remainder to the lowest IDs.
func TestSplitPagesExact(t *testing.T) {
	for _, tc := range []struct {
		total uint64
		n     int
	}{{10, 3}, {8, 8}, {7, 8}, {1 << 20, 4}, {0, 2}} {
		shares := splitPages(tc.total, tc.n)
		var sum uint64
		for i, s := range shares {
			sum += s
			if i > 0 && shares[i-1] < s {
				t.Fatalf("splitPages(%d,%d) not monotone: %v", tc.total, tc.n, shares)
			}
		}
		if sum != tc.total {
			t.Fatalf("splitPages(%d,%d) sums to %d: %v", tc.total, tc.n, sum, shares)
		}
	}
}

// TestPartitionTouchesCoversTrace: every touch lands in exactly one
// partition, translated to its owner's local index space.
func TestPartitionTouchesCoversTrace(t *testing.T) {
	shares := []uint64{4, 4, 2}
	idx := []uint64{0, 9, 4, 3, 8, 7}
	parts := partitionTouches(idx, shares)
	want := [][]uint64{{0, 3}, {0, 7 - 4}, {9 - 8, 8 - 8}}
	for i := range want {
		if len(parts[i]) != len(want[i]) {
			t.Fatalf("partition %d = %v, want %v", i, parts[i], want[i])
		}
		for j := range want[i] {
			if parts[i][j] != want[i][j] {
				t.Fatalf("partition %d = %v, want %v", i, parts[i], want[i])
			}
		}
	}
}
