package check

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"repro/internal/snapshot"
)

var updateWorldStates = flag.Bool("update-world-states", false,
	"rewrite testdata/world_states.txt from the current worlds")

// worldStatesFile pins each configuration's final simulated state.
const worldStatesFile = "testdata/world_states.txt"

// TestWorldStatesPinned replays one seeded trace through every
// configuration, tiered and untiered, and compares a hash of each
// world's final machine state (clocks, RNGs, every registered counter)
// and memory content checksum with the committed values. Any change
// to the order or arguments of a simulated call shows up here, so a
// restructure of the worlds must leave this file untouched.
// Regenerate deliberately with -update-world-states.
func TestWorldStatesPinned(t *testing.T) {
	const seed, ops, cpus = 1, 600, 2
	trace := generate(seed, ops, cpus)
	var got strings.Builder
	for _, tiered := range []bool{false, true} {
		for _, cfg := range AllConfigs {
			w, err := newWorld(cfg, cpus, seed, tiered, nil)
			if err != nil {
				t.Fatal(err)
			}
			if f := replaySpan(w, newModel(cpus), trace, 0, len(trace)); f != nil {
				t.Fatalf("%s tiered=%v: %v", cfg, tiered, f)
			}
			st, sum := capture(w)
			h := fnv.New64a()
			h.Write(snapshot.EncodeMachineState(st))
			fmt.Fprintf(h, "%016x", sum)
			fmt.Fprintf(&got, "%s tier=%v %016x\n", cfg, tiered, h.Sum64())
		}
	}
	if *updateWorldStates {
		if err := os.WriteFile(worldStatesFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(worldStatesFile)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("final world states moved:\ngot:\n%swant:\n%s", got.String(), want)
	}
}
