package o1mem

import (
	"bytes"
	"os"
	"runtime"
	"testing"

	"repro/internal/bench"
)

// TestResultsPinned renders every experiment the way `o1bench -format
// md` does and compares the bytes with the committed RESULTS.md, so a
// change that moves any simulated number fails here instead of leaving
// RESULTS.md silently stale.
func TestResultsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole experiment suite")
	}
	want, err := os.ReadFile("RESULTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, r := range bench.RunSuite(bench.All(), runtime.GOMAXPROCS(0)) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		section := r.Result.Markdown() + "\n"
		if !bytes.Contains(want, []byte(section)) {
			t.Errorf("%s: rendered tables differ from RESULTS.md", r.ID)
		}
		got.WriteString(section)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("RESULTS.md does not match the experiments' output; if the change is intended, run `make results` and review the diff")
	}
}
