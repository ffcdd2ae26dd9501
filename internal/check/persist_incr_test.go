package check

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestIncrementalRecoverAllConfigs is the core property test: across
// random crash points — torn and clean, one to three deltas — every
// configuration's base+deltas restore must be bit-identical to full
// replay, the assembled differential image must match memory exactly,
// and the compacted journal must carry precisely the uncheckpointed
// suffix.
func TestIncrementalRecoverAllConfigs(t *testing.T) {
	ops := 1200
	if testing.Short() {
		ops = 400
	}
	rng := sim.NewRNG(0xfeedface)
	for trial := 0; trial < 4; trial++ {
		seed := 100 + uint64(trial)
		crashAt := 1 + int(rng.Uint64n(uint64(ops)))
		baseAt := crashAt / 3
		nDeltas := 1 + int(rng.Uint64n(3))
		var deltaAts []int
		last := baseAt
		for i := 1; i <= nDeltas; i++ {
			at := baseAt + (crashAt-baseAt)*i/(nDeltas+1)
			if at > last {
				deltaAts = append(deltaAts, at)
				last = at
			}
		}
		torn := crashAt > last && trial%2 == 1
		reports, f, err := CrashRecoverIncremental(
			Options{Seed: seed, Ops: ops, CPUs: 2}, baseAt, deltaAts, crashAt, torn)
		if err != nil {
			t.Fatalf("trial %d (base@%d deltas@%v crash@%d torn=%v): %v",
				trial, baseAt, deltaAts, crashAt, torn, err)
		}
		if f != nil {
			t.Fatalf("trial %d (base@%d deltas@%v crash@%d torn=%v): %v",
				trial, baseAt, deltaAts, crashAt, torn, f)
		}
		if len(reports) != len(AllConfigs) {
			t.Fatalf("trial %d: %d reports, want %d", trial, len(reports), len(AllConfigs))
		}
		for _, rep := range reports {
			wantRecovered := crashAt
			if torn {
				wantRecovered--
			}
			if rep.RecoveredAt != wantRecovered {
				t.Errorf("trial %d %s: recovered to %d, want %d", trial, rep.Config, rep.RecoveredAt, wantRecovered)
			}
			if len(rep.DirtyFrames) != len(deltaAts) {
				t.Errorf("trial %d %s: %d deltas captured, want %d", trial, rep.Config, len(rep.DirtyFrames), len(deltaAts))
			}
			lastAt := baseAt
			if len(deltaAts) > 0 {
				lastAt = deltaAts[len(deltaAts)-1]
			}
			if rep.Watermark != uint64(lastAt-baseAt) {
				t.Errorf("trial %d %s: watermark %d, want %d", trial, rep.Config, rep.Watermark, lastAt-baseAt)
			}
			if rep.JournalRecords != wantRecovered-lastAt {
				t.Errorf("trial %d %s: %d journal records, want %d", trial, rep.Config, rep.JournalRecords, wantRecovered-lastAt)
			}
			if torn && rep.TornBytes == 0 {
				t.Errorf("trial %d %s: torn run reported no torn bytes", trial, rep.Config)
			}
			if rep.ChainBytes == 0 {
				t.Errorf("trial %d %s: empty chain", trial, rep.Config)
			}
		}
	}
}

// TestIncrementalEdgePoints covers the degenerate chain shapes: no
// deltas (base-only chain: a full snapshot plus a journal from the
// base, across seeds and CPU counts), a delta exactly at the crash
// (empty journal suffix), and a base at op 0. Every configuration must
// recover to the crash point (one op earlier when torn) and finish
// bit-identical to the uncrashed control.
func TestIncrementalEdgePoints(t *testing.T) {
	cases := []struct {
		name     string
		seed     uint64
		cpus     int
		baseAt   int
		deltaAts []int
		crashAt  int
		torn     bool
	}{
		{"no-deltas", 42, 2, 100, nil, 220, false},
		{"no-deltas-torn", 42, 2, 100, nil, 220, true},
		{"no-deltas-seed1-cpus1", 1, 1, 110, nil, 230, false},
		{"no-deltas-seed2-cpus2-torn", 2, 2, 70, nil, 150, true},
		{"no-deltas-seed3-cpus4", 3, 4, 130, nil, 270, false},
		{"delta-at-crash", 42, 2, 80, []int{160, 240}, 240, false},
		{"base-at-zero", 42, 2, 0, []int{90}, 180, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reports, f, err := CrashRecoverIncremental(
				Options{Seed: tc.seed, Ops: 300, CPUs: tc.cpus}, tc.baseAt, tc.deltaAts, tc.crashAt, tc.torn)
			if err != nil {
				t.Fatalf("%v", err)
			}
			if f != nil {
				t.Fatalf("%v", f)
			}
			if len(reports) != len(AllConfigs) {
				t.Fatalf("%d reports, want %d", len(reports), len(AllConfigs))
			}
			wantRecovered := tc.crashAt
			if tc.torn {
				wantRecovered--
			}
			for _, rep := range reports {
				if rep.RecoveredAt != wantRecovered {
					t.Errorf("%s: recovered to op %d, want %d", rep.Config, rep.RecoveredAt, wantRecovered)
				}
				if tc.torn == (rep.TornBytes == 0) {
					t.Errorf("%s: torn=%v but %d torn bytes", rep.Config, tc.torn, rep.TornBytes)
				}
				if rep.ChainBytes == 0 {
					t.Errorf("%s: empty chain", rep.Config)
				}
			}
		})
	}
}

// TestIncrementalTornNeedsSuffix pins the precondition: tearing the
// journal requires at least one record past the last delta.
func TestIncrementalTornNeedsSuffix(t *testing.T) {
	_, _, err := CrashRecoverIncremental(
		Options{Seed: 1, Ops: 300, CPUs: 2}, 50, []int{100}, 100, true)
	if err == nil {
		t.Fatal("torn crash with empty journal suffix accepted")
	}
}

// TestBuildVerifyChain exercises the o1snap-facing API: build a chain
// over the full trace (uncompacted journal), verify it, compact the
// journal to the last delta, and verify again — both must replay the
// journal to the end of the trace and land on the model's final state.
func TestBuildVerifyChain(t *testing.T) {
	for _, cfg := range AllConfigs {
		opts := Options{Seed: 9, Ops: 300, CPUs: 2}
		chain, err := BuildChain(cfg, opts, 100, []int{160, 220})
		if err != nil {
			t.Fatalf("%s: build: %v", cfg, err)
		}
		if chain.Journal.Watermark() != 0 {
			t.Fatalf("%s: fresh chain journal already compacted (watermark %d)", cfg, chain.Journal.Watermark())
		}
		if got, want := chain.Journal.Len(), 300-100; got != want {
			t.Fatalf("%s: journal holds %d records, want %d", cfg, got, want)
		}
		if err := VerifyChain(chain); err != nil {
			t.Fatalf("%s: verify uncompacted: %v", cfg, err)
		}
		if err := chain.Journal.Compact(uint64(220 - 100)); err != nil {
			t.Fatalf("%s: compact: %v", cfg, err)
		}
		if err := VerifyChain(chain); err != nil {
			t.Fatalf("%s: verify compacted: %v", cfg, err)
		}
		// Over-compaction past the last capture point must be caught.
		if err := chain.Journal.Compact(uint64(220 - 100 + 5)); err != nil {
			t.Fatalf("%s: over-compact: %v", cfg, err)
		}
		if err := VerifyChain(chain); err == nil {
			t.Fatalf("%s: over-compacted chain verified", cfg)
		}
	}
}

// TestVerifyChainRejectsJournalPastTrace: a chain file whose journal
// holds more records than the embedded trace has ops is malformed input
// and must fail verification, not index past the trace.
func TestVerifyChainRejectsJournalPastTrace(t *testing.T) {
	chain, err := BuildChain("fom", Options{Seed: 9, Ops: 300, CPUs: 2}, 100, []int{200})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	chain.Journal.Append(encodeOp(nil, Op{}))
	if err := VerifyChain(chain); err == nil {
		t.Fatal("journal running past the trace verified")
	}
}

// TestChainDifferentialImageCatchesMissedDirt proves the acceptance
// mechanism has teeth: corrupt one delta's captured frame data and the
// differential-image proof must fail the restore.
func TestChainDifferentialImageCatchesMissedDirt(t *testing.T) {
	chain, err := BuildChain("fom", Options{Seed: 9, Ops: 300, CPUs: 2}, 100, []int{200})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	tampered := false
	for _, d := range chain.Deltas {
		for _, fi := range d.Frames {
			if fi.Data != nil {
				fi.Data[0] ^= 0xff
				tampered = true
				break
			}
		}
		if tampered {
			break
		}
	}
	if !tampered {
		t.Skip("no materialized delta frame to tamper with")
	}
	err = VerifyChain(chain)
	if err == nil {
		t.Fatal("tampered delta image verified")
	}
	if !strings.Contains(err.Error(), "differential image") && !strings.Contains(err.Error(), "checksum") {
		t.Errorf("unexpected diagnosis: %v", err)
	}
}

// TestRunIncrementalStage: Run with Options.CrashRecover builds a
// base + delta chain per config and says so in its report.
func TestRunIncrementalStage(t *testing.T) {
	report, err := Run(Options{Seed: 13, Ops: 600, CPUs: 2, CrashRecover: true})
	if err != nil {
		t.Fatalf("%v", err)
	}
	if report.Failure != nil {
		t.Fatalf("%s", report.Format())
	}
	if len(report.ChainReports) != len(AllConfigs) {
		t.Fatalf("%d chain reports, want %d", len(report.ChainReports), len(AllConfigs))
	}
	if !strings.Contains(report.Format(), "crash-recover") {
		t.Errorf("report does not mention the crash-recover stage:\n%s", report.Format())
	}
}

// TestIncrementalUnitsScaleWithConfig pins the paper's shape claim on
// checkpoint metadata: the extent configs cover their dirty frames
// with far fewer units than the page-granular baseline when the same
// trace dirties the same logical state.
func TestIncrementalUnitsScaleWithConfig(t *testing.T) {
	opts := Options{Seed: 21, Ops: 800, CPUs: 2}
	reports, f, err := CrashRecoverIncremental(opts, 200, []int{500}, 700, false)
	if err != nil {
		t.Fatalf("%v", err)
	}
	if f != nil {
		t.Fatalf("%v", f)
	}
	units := map[string]int{}
	frames := map[string]int{}
	for _, rep := range reports {
		for i := range rep.DirtyUnits {
			units[rep.Config] += rep.DirtyUnits[i]
			frames[rep.Config] += rep.DirtyFrames[i]
		}
	}
	for cfg, u := range units {
		if frames[cfg] > 0 && u == 0 {
			t.Errorf("%s: dirty frames but no units", cfg)
		}
		t.Logf("%s: %d dirty frames covered by %d units", cfg, frames[cfg], u)
	}
	// The baseline pays one unit per dirty page; extent configs must
	// do strictly better on this trace (multi-page objects and files).
	if frames["baseline"] > 0 && units["baseline"] != frames["baseline"] {
		t.Errorf("baseline: %d units for %d dirty frames, want page-granular equality",
			units["baseline"], frames["baseline"])
	}
	for _, cfg := range []string{"fom", "usermode"} {
		if frames[cfg] > 8 && units[cfg] >= frames[cfg] {
			t.Errorf("%s: %d units for %d dirty frames — extents bought nothing", cfg, units[cfg], frames[cfg])
		}
	}
}
