package fsshell

import (
	"io"
	"strings"
	"testing"

	"repro/internal/memfs"
)

// FuzzExecLine runs arbitrary scripts, line by line, against a small
// file system under each allocation policy. A malformed line must
// print an error, never panic or ask the host for an unbounded
// buffer, and no sequence of commands may leave the file system
// inconsistent. The seeds are the test scripts.
func FuzzExecLine(f *testing.F) {
	for _, s := range seedScripts {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script string) {
		lines := strings.Split(script, "\n")
		if len(lines) > 64 {
			lines = lines[:64]
		}
		for _, policy := range []memfs.AllocPolicy{memfs.Extent, memfs.PerPage} {
			sh, err := New(policy, 256, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			for _, line := range lines {
				sh.ExecLine(strings.TrimSpace(line))
			}
			if err := sh.fs.CheckInvariants(); err != nil {
				t.Fatalf("policy %v: after %q: %v", policy, script, err)
			}
		}
	})
}
