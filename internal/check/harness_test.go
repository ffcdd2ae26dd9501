package check

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestStressAllConfigs runs the differential harness across seeds and
// CPU counts. Any invariant violation or observable divergence fails.
func TestStressAllConfigs(t *testing.T) {
	ops := 12000
	if testing.Short() {
		ops = 2000
	}
	for _, tc := range []struct {
		seed uint64
		cpus int
	}{
		{seed: 1, cpus: 1},
		{seed: 2, cpus: 2},
		{seed: 3, cpus: 4},
	} {
		report, err := Run(Options{
			Seed:       tc.seed,
			Ops:        ops,
			CPUs:       tc.cpus,
			CheckEvery: 512,
			Shrink:     true,
		})
		if err != nil {
			t.Fatalf("seed %d cpus %d: %v", tc.seed, tc.cpus, err)
		}
		if report.Failure != nil {
			t.Fatalf("seed %d cpus %d:\n%s", tc.seed, tc.cpus, report.Format())
		}
	}
}

// TestTraceDeterminism: the same seed must generate the identical
// trace — the property every `-seed N` reproduction rests on.
func TestTraceDeterminism(t *testing.T) {
	a := generate(42, 5000, 4)
	b := generate(42, 5000, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated two different traces")
	}
}

// TestReplayDeterminism: replaying the same trace twice must reach the
// same verdict (the shrinker assumes this).
func TestReplayDeterminism(t *testing.T) {
	opts, err := Options{Seed: 6, Ops: 3000, CPUs: 2, CheckEvery: 256}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	trace := generate(opts.Seed, opts.Ops, opts.CPUs)
	f1 := replay(trace, opts)
	f2 := replay(trace, opts)
	if (f1 == nil) != (f2 == nil) {
		t.Fatalf("replay verdict flipped: %v vs %v", f1, f2)
	}
}

// TestCorruptionCaught proves the checker end to end: deliberately
// corrupting one rmap entry in the baseline (via the test-only hook)
// must fail the run, and the shrinker must reduce the trace to a
// minimal reproducer of at most 20 operations.
func TestCorruptionCaught(t *testing.T) {
	report, err := Run(Options{
		Seed:    1,
		Ops:     500,
		CPUs:    2,
		Configs: []string{"baseline"},
		Shrink:  true,
		Corrupt: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Failure == nil {
		t.Fatal("deliberate rmap corruption went undetected")
	}
	if !strings.Contains(report.Failure.Reason, "rmap") {
		t.Errorf("failure does not identify the rmap: %v", report.Failure)
	}
	if report.Shrunk == nil {
		t.Fatal("failing trace was not shrunk")
	}
	if len(report.Shrunk) > 20 {
		t.Errorf("shrunk trace has %d ops, want <= 20:\n%s", len(report.Shrunk), report.Format())
	}
}

// TestShrinkerMinimizes: a failure seeded mid-trace must shrink to the
// few operations that matter. Corruption needs at least one mapped
// page with an rmap entry, i.e. a map plus a populating write.
func TestShrinkerMinimizes(t *testing.T) {
	report, err := Run(Options{
		Seed:    3,
		Ops:     300,
		CPUs:    1,
		Configs: []string{"baseline"},
		Shrink:  true,
		Corrupt: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Failure == nil {
		t.Fatal("deliberate rmap corruption went undetected")
	}
	if got := len(report.Shrunk); got > 4 {
		t.Errorf("shrunk trace has %d ops; a map + write (+ share/fork) suffices:\n%s", got, report.Format())
	}
}

// TestUnknownConfig: a bad configuration name is a setup error, not a
// test failure.
func TestUnknownConfig(t *testing.T) {
	if _, err := Run(Options{Configs: []string{"nonesuch"}}); err == nil {
		t.Fatal("unknown configuration accepted")
	}
}

// TestNegativeCPUsRejected: a CPU count below 0 or above sim.MaxCPUs is
// a setup error from every entry point, not a panic in the trace
// generator or in sim.NewMachine.
func TestNegativeCPUsRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(Options) error
	}{
		{"Run", func(o Options) error { _, err := Run(o); return err }},
		{"RunMany", func(o Options) error { _, err := RunMany(o, 2, 2); return err }},
		{"BuildSnapshot", func(o Options) error { _, err := BuildSnapshot("fom", o, 10); return err }},
		{"BuildChain", func(o Options) error { _, err := BuildChain("fom", o, 5, []int{10}); return err }},
		{"CrashRecoverIncremental", func(o Options) error {
			_, _, err := CrashRecoverIncremental(o, 5, []int{10}, 15, false)
			return err
		}},
	} {
		for _, cpus := range []int{-1, -3, sim.MaxCPUs + 1} {
			t.Run(fmt.Sprintf("%s/cpus%d", tc.name, cpus), func(t *testing.T) {
				if err := tc.run(Options{Seed: 1, Ops: 50, CPUs: cpus}); err == nil {
					t.Fatalf("accepted CPUs = %d", cpus)
				}
			})
		}
	}
}

// TestNegativeCountsRejected: a negative op count or invariant sweep
// interval is a setup error from every entry point, not a makeslice
// panic in the trace generator.
func TestNegativeCountsRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(Options) error
	}{
		{"Run", func(o Options) error { _, err := Run(o); return err }},
		{"RunMany", func(o Options) error { _, err := RunMany(o, 2, 2); return err }},
		{"BuildSnapshot", func(o Options) error { _, err := BuildSnapshot("fom", o, 10); return err }},
		{"BuildChain", func(o Options) error { _, err := BuildChain("fom", o, 5, []int{10}); return err }},
		{"CrashRecoverIncremental", func(o Options) error {
			_, _, err := CrashRecoverIncremental(o, 5, []int{10}, 15, false)
			return err
		}},
	} {
		for _, bad := range []Options{
			{Seed: 1, Ops: -1},
			{Seed: 1, Ops: -50, CrashRecover: true},
			{Seed: 1, Ops: 50, CheckEvery: -1},
		} {
			t.Run(fmt.Sprintf("%s/ops%d/every%d", tc.name, bad.Ops, bad.CheckEvery), func(t *testing.T) {
				if err := tc.run(bad); err == nil {
					t.Fatalf("accepted Ops = %d, CheckEvery = %d", bad.Ops, bad.CheckEvery)
				}
			})
		}
	}
}
