package usermode

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/buddy"
)

// TestCheckDisjointRejectsGrantOnFreeSpace frees part of a live grant
// (or shared segment) straight back into its pool, leaving the grant
// installed, and expects the disjointness audit to report the overlap
// whether the freed frames are the head, the tail or all of the span,
// in the primary pool and in the fast pool.
func TestCheckDisjointRejectsGrantOnFreeSpace(t *testing.T) {
	parts := []struct {
		name string
		cut  func(r buddy.Run) buddy.Run
	}{
		{"head", func(r buddy.Run) buddy.Run { return buddy.Run{Start: r.Start, Count: 8} }},
		{"tail", func(r buddy.Run) buddy.Run { return buddy.Run{Start: r.End() - 8, Count: 8} }},
		{"whole", func(r buddy.Run) buddy.Run { return r }},
	}
	for _, fast := range []uint64{0, 512} {
		for _, what := range []string{"grant", "shared"} {
			for _, part := range parts {
				t.Run(fmt.Sprintf("fast=%d/%s/%s", fast, what, part.name), func(t *testing.T) {
					machine, _, gt := newTable(t, 1024, fast, 64)
					p, err := gt.NewProcessOn(machine.BootCPU())
					if err != nil {
						t.Fatal(err)
					}
					// A neighbour on each side, so the damaged span is
					// not the only one the search can land on.
					for i := 0; i < 3; i++ {
						if _, err := p.AllocPages(64); err != nil {
							t.Fatal(err)
						}
						if i == 1 {
							if _, err := gt.NewShared(p, 32); err != nil {
								t.Fatal(err)
							}
						}
					}
					if err := gt.checkDisjoint(); err != nil {
						t.Fatalf("clean table: %v", err)
					}
					run, from := p.grants[1].run, p.grants[1].from
					if what == "shared" {
						run, from = gt.shared[0].run, gt.shared[0].from
					}
					if fast > 0 && from != gt.fast {
						t.Fatal("span not placed in the fast pool")
					}
					if err := from.FreeRun(part.cut(run)); err != nil {
						t.Fatal(err)
					}
					want := fmt.Sprintf("usermode: %s [%d,+%d) overlaps pool free space", what, run.Start, run.Count)
					if err := gt.checkDisjoint(); err == nil || !strings.Contains(err.Error(), want) {
						t.Fatalf("checkDisjoint = %v, want %q", err, want)
					}
				})
			}
		}
	}
}
