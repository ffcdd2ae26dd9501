package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// checkMetrics asserts that got holds exactly the named metrics, with
// their units.
func checkMetrics(t *testing.T, got map[string]metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("metric %s not emitted", w.Name)
		} else if m.Unit != w.Unit {
			t.Errorf("metric %s in %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		}
	}
}

// TestWorkloadsTiny runs every workload at a tiny size on the default
// seed and on a held-out one, untraced twice and traced once. Every
// named metric must be emitted, no op may fail, and each seed's
// simulated digest must repeat exactly (the traced run checks its own
// digest against an untraced one and fails ops on a mismatch).
func TestWorkloadsTiny(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		for _, seed := range []uint64{defaultSeed, defaultSeed + 1} {
			t.Run(fmt.Sprintf("%s/seed%d", w.Name, seed), func(t *testing.T) {
				o := options{workload: w.Name, seed: seed, tiny: true}
				var digests []string
				for i := 0; i < 2; i++ {
					res, dig, err := benchmark(o, io.Discard)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
						t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
					}
					checkMetrics(t, res.Metrics, bj.EndToEnd)
					digests = append(digests, dig)
				}
				if digests[0] != digests[1] {
					t.Errorf("digest %s then %s: the simulation is not deterministic", digests[0], digests[1])
				}
				o.traced = true
				res, dig, err := benchmark(o, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("traced: correct=%v failed=%d", res.Correct, res.Failed)
				}
				checkMetrics(t, res.Metrics, bj.PerLayer)
				if f := res.Metrics["ops_failed_frac"].Value; f != 0 {
					t.Errorf("ops_failed_frac = %v", f)
				}
				if k := res.Metrics["usermode.kernel_transitions"].Value; k != 0 {
					t.Errorf("usermode.kernel_transitions = %v", k)
				}
				if dig != digests[0] {
					t.Errorf("traced run's digest %s, untraced %s", dig, digests[0])
				}
			})
		}
	}
}

// TestCommittedDigests reruns every workload's canonical measurement
// at full size on the default seed and compares its digest with
// digests.json: any drift in a simulated number fails here.
func TestCommittedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size workloads")
	}
	for _, w := range workloads {
		want, ok, err := committedDigest(w.name, defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("%s: digests.json pins no digest for seed %d", w.name, defaultSeed)
			continue
		}
		res, got, err := benchmark(options{workload: w.name, seed: defaultSeed}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || !res.Correct {
			t.Errorf("%s: digest %s (correct=%v), digests.json pins %s", w.name, got, res.Correct, want)
		}
	}
}
