package check

import (
	"testing"

	"repro/internal/tier"
)

// TestTieredStressAllConfigs runs the differential harness with the
// tier migration engine attached to every world: byte contents, TLB
// freshness, and per-tier accounting must all survive frames moving
// between DRAM and NVM underneath the trace.
func TestTieredStressAllConfigs(t *testing.T) {
	ops := 8000
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
			Tier:       true,
		})
		if err != nil {
			t.Fatalf("seed %d cpus %d: %v", tc.seed, tc.cpus, err)
		}
		if report.Failure != nil {
			t.Fatalf("seed %d cpus %d:\n%s", tc.seed, tc.cpus, report.Format())
		}
	}
}

// TestTieredRunActuallyMigrates guards against the tiered harness
// silently degenerating into a no-op: a tiered run must perform real
// promotions AND demotions, across page-granular (baseline/fom) and
// extent-granular (pbm/ranges) backends alike. Telemetry is
// process-global and cumulative, so the test asserts on deltas.
func TestTieredRunActuallyMigrates(t *testing.T) {
	for _, cfg := range AllConfigs {
		before := tier.TelemetrySnapshot()
		report, err := Run(Options{
			Seed:       5,
			Ops:        6000,
			CPUs:       2,
			Configs:    []string{cfg},
			CheckEvery: 1024,
			Tier:       true,
		})
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		if report.Failure != nil {
			t.Fatalf("%s:\n%s", cfg, report.Format())
		}
		d := tier.TelemetrySnapshot().Sub(before)
		if d.Promotions == 0 || d.Demotions == 0 {
			t.Errorf("%s: tiered run migrated nothing (delta %+v) — fast capacity or trace too generous", cfg, d)
		}
		if d.PagesMoved == 0 || d.SampledRefs == 0 || d.Scans == 0 {
			t.Errorf("%s: tier machinery idle (delta %+v)", cfg, d)
		}
	}
}

// TestTieredExtentGranularity pins the shape claim of the paper
// experiment: range-translated worlds migrate whole extents (and pay
// for every page of them), while the page-granular worlds never move
// more than a page per migration.
func TestTieredExtentGranularity(t *testing.T) {
	delta := func(cfg string) tier.Telemetry {
		before := tier.TelemetrySnapshot()
		report, err := Run(Options{
			Seed: 5, Ops: 6000, CPUs: 2, Configs: []string{cfg},
			CheckEvery: 1024, Tier: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		if report.Failure != nil {
			t.Fatalf("%s:\n%s", cfg, report.Format())
		}
		return tier.TelemetrySnapshot().Sub(before)
	}
	for _, cfg := range []string{"pbm", "ranges"} {
		if d := delta(cfg); d.ExtentMoves == 0 {
			t.Errorf("%s: no multi-page extent migrations (delta %+v)", cfg, d)
		}
	}
	for _, cfg := range []string{"baseline"} {
		if d := delta(cfg); d.ExtentMoves != 0 {
			t.Errorf("%s: page-granular backend reported %d extent moves", cfg, d.ExtentMoves)
		}
	}
	// The fom world's backend splits extents to migrate single pages.
	if d := delta("fom"); d.ExtentMoves != 0 || (d.PagesMoved > 0 && d.Splits == 0) {
		t.Errorf("fom: want page-granular moves with extent splits, got delta %+v", d)
	}
}

// TestTieredReplayDeterminism: migrations ride the simulated clocks,
// so a tiered replay must still reach the same verdict every time —
// and at every host-parallel CPU count the shrinker might use.
func TestTieredReplayDeterminism(t *testing.T) {
	opts, err := Options{Seed: 6, Ops: 3000, CPUs: 2, CheckEvery: 256, Tier: true}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	trace := generate(opts.Seed, opts.Ops, opts.CPUs)
	f1 := replay(trace, opts)
	f2 := replay(trace, opts)
	if (f1 == nil) != (f2 == nil) {
		t.Fatalf("tiered replay verdict flipped: %v vs %v", f1, f2)
	}
}

// TestTierCrashRecoverComposes: hotness state is volatile, but the
// tier engine is deterministic, so restore-by-reexecution rebuilds it
// — a tiered crash-and-recover run must recover bit-identical, with
// migrations riding underneath the checkpoint and journal.
func TestTierCrashRecoverComposes(t *testing.T) {
	report, err := Run(Options{Seed: 7, Ops: 1500, CPUs: 2, Tier: true, CrashRecover: true})
	if err != nil {
		t.Fatalf("tier + crash-recover: %v", err)
	}
	if report.Failure != nil {
		t.Fatalf("tier + crash-recover:\n%s", report.Format())
	}
	if len(report.ChainReports) != len(AllConfigs) {
		t.Fatalf("crash stage covered %d configs, want %d", len(report.ChainReports), len(AllConfigs))
	}
}

// TestTierIncrementalCrashRecoverComposes runs the full stack at once:
// tier migrations, dirty tracking, base + deltas, journal compaction,
// crash, differential restore. Migrations dirty their destination
// frames, so the differential-image proof covers them too.
func TestTierIncrementalCrashRecoverComposes(t *testing.T) {
	report, err := Run(Options{Seed: 8, Ops: 1500, CPUs: 2, Tier: true, CrashRecover: true})
	if err != nil {
		t.Fatalf("tier + incremental: %v", err)
	}
	if report.Failure != nil {
		t.Fatalf("tier + incremental:\n%s", report.Format())
	}
	if len(report.ChainReports) != len(AllConfigs) {
		t.Fatalf("incremental stage covered %d configs, want %d", len(report.ChainReports), len(AllConfigs))
	}
}
