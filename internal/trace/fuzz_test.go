package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzTraceRead: Read (the o1trace input decoder) returns errors on
// malformed input and never panics; every trace it accepts round-trips
// through Write and Read unchanged; and Validate never panics on what
// Read accepts. The seed corpus in testdata/fuzz/FuzzTraceRead holds
// the golden trace and a single alloc of 2^62 pages.
func FuzzTraceRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		tr, err := Read(bytes.NewReader(b))
		if err != nil {
			return
		}
		_ = tr.Validate()
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatalf("Write of a decoded trace: %v", err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-reading a written trace: %v", err)
		}
		if !reflect.DeepEqual(tr, again) {
			t.Fatalf("round trip changed the trace:\nfirst:  %+v\nsecond: %+v", tr, again)
		}
	})
}
