package snapshot

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// FuzzSnapshotLoad: Load, ReadSection and DecodeMachineState never
// panic on any input. A snapshot Load accepts saves and reloads to the
// same value, and saving that again writes the same bytes. Every
// section ReadSection accepts re-frames, with AppendSection, to exactly
// the bytes it consumed. A machine state DecodeMachineState accepts
// re-encodes to exactly its input.
//
// The seed corpus in testdata/fuzz/FuzzSnapshotLoad holds a real
// snapshot of a short baseline run, the same file truncated, and the
// same file with a flipped META checksum byte.
func FuzzSnapshotLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := Load(bytes.NewReader(data)); err == nil {
			var first, second bytes.Buffer
			if err := s.Save(&first); err != nil {
				t.Fatal(err)
			}
			again, err := Load(bytes.NewReader(first.Bytes()))
			if err != nil {
				t.Fatalf("reloading a saved snapshot: %v", err)
			}
			if !reflect.DeepEqual(again, s) {
				t.Fatalf("save and reload changed the snapshot:\n%+v\n%+v", s, again)
			}
			if err := again.Save(&second); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatal("saving a reloaded snapshot wrote different bytes")
			}
		}

		r := bytes.NewReader(data)
		for off := 0; ; {
			tag, payload, err := ReadSection(r)
			if err != nil {
				if err == io.EOF && off != len(data) {
					t.Fatalf("io.EOF at offset %d of %d", off, len(data))
				}
				break
			}
			end := len(data) - r.Len()
			if framed := AppendSection(nil, tag, payload); !bytes.Equal(framed, data[off:end]) {
				t.Fatalf("section %q at offset %d does not re-frame to the bytes read", tag, off)
			}
			off = end
		}

		if st, err := DecodeMachineState(data); err == nil {
			if enc := EncodeMachineState(st); !bytes.Equal(enc, data) {
				t.Fatalf("machine state re-encodes to %d bytes, decoded from %d", len(enc), len(data))
			}
			if n := MachineStateLen(st); n != len(data) {
				t.Fatalf("MachineStateLen = %d for a %d-byte encoding", n, len(data))
			}
		}
	})
}

// TestSnapshotSeedCorpus pins what each FuzzSnapshotLoad seed is: the
// real snapshot loads and names its configuration, the truncated one
// and the one with a flipped checksum byte are refused as corrupt.
func TestSnapshotSeedCorpus(t *testing.T) {
	for name, want := range map[string]string{
		"real":      "",
		"truncated": "truncated",
		"bad-crc":   "checksum",
	} {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzSnapshotLoad", name))
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		if !ok || !strings.HasSuffix(lit, ")") {
			t.Fatalf("%s: not a one-value []byte corpus file", name)
		}
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s, err := Load(strings.NewReader(data))
		switch {
		case want == "" && err != nil:
			t.Errorf("%s: Load: %v", name, err)
		case want == "" && s.Meta.Config != "baseline":
			t.Errorf("%s: config %q, want baseline", name, s.Meta.Config)
		case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
			t.Errorf("%s: Load error %v, want one mentioning %q", name, err, want)
		}
	}
}

// TestSectionLengthBeyondReaderAllocatesLittle pins that a section
// header claiming more bytes than a bytes.Reader holds is refused as
// truncated before its payload buffer is allocated.
func TestSectionLengthBeyondReaderAllocatesLittle(t *testing.T) {
	data := AppendSection(nil, "TRAC", []byte("payload"))
	data[4], data[5], data[6], data[7] = 0, 0, 0, 0x03 // 48 MiB, under maxSectionBytes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadSection(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("ReadSection error %v, want a truncated section", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("refusing the section allocated %d bytes", got)
	}
}
