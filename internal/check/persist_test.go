package check

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/snapshot"
)

func TestTraceCodecRoundTrip(t *testing.T) {
	trace := generate(42, 500, 4)
	got, err := DecodeTrace(EncodeTrace(trace))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trace, got) {
		t.Fatal("trace codec round trip diverged")
	}
	if _, err := DecodeTrace(EncodeTrace(trace)[:7]); err == nil {
		t.Fatal("truncated trace decoded without error")
	}
}

func TestSnapshotBuildRestoreVerify(t *testing.T) {
	opts := Options{Seed: 7, Ops: 300, CPUs: 2}
	for _, cfg := range AllConfigs {
		snap, err := BuildSnapshot(cfg, opts, 150)
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		// Through the on-media format, as o1snap uses it.
		var buf bytes.Buffer
		if err := snap.Save(&buf); err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		loaded, err := snapshot.Load(&buf)
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		if err := VerifySnapshot(loaded); err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
	}
}

// TestDecodeTraceHugeCount: a 4-byte payload claiming 2^32-1 ops must
// be rejected, not preallocated.
func TestDecodeTraceHugeCount(t *testing.T) {
	if _, err := DecodeTrace([]byte{0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Fatal("trace claiming 2^32-1 ops with no op bytes decoded")
	}
}

// FuzzDecodeTrace: malformed trace payloads return errors, never
// panic, and every payload that decodes re-encodes to itself.
func FuzzDecodeTrace(f *testing.F) {
	f.Add(EncodeTrace(generate(1, 40, 2)))
	f.Add(EncodeTrace(nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		trace, err := DecodeTrace(b)
		if err != nil {
			return
		}
		if got := EncodeTrace(trace); !bytes.Equal(got, b) {
			t.Fatalf("%d decoded ops do not re-encode to the input (%d vs %d bytes)", len(trace), len(got), len(b))
		}
	})
}

// TestRunCrashRecoverStage drives the stage end to end through Run with
// the randomized point selection, and pins that the selection covers
// every chain shape from base-only to three deltas.
func TestRunCrashRecoverStage(t *testing.T) {
	ops := 600
	if testing.Short() {
		ops = 250
	}
	report, err := Run(Options{Seed: 11, Ops: ops, CPUs: 2, CrashRecover: true})
	if err != nil {
		t.Fatal(err)
	}
	if report.Failure != nil {
		t.Fatalf("crash-recover stage failed:\n%s", report.Format())
	}
	shapes := map[int]bool{}
	for seed := uint64(1); seed <= 64; seed++ {
		_, deltaAts, _, _ := incrementalStage(Options{Seed: seed}, 20000)
		shapes[len(deltaAts)] = true
	}
	for n := 0; n <= 3; n++ {
		if !shapes[n] {
			t.Errorf("no seed in 1..64 draws a chain with %d deltas", n)
		}
	}
}
