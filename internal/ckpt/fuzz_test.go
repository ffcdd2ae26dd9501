package ckpt_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// savedChain returns the encoding of a small chain: a base with one
// materialized frame (none with emptyBase), one delta, and two journal
// records.
func savedChain(t testing.TB, emptyBase bool) []byte {
	t.Helper()
	data := make([]byte, mem.FrameSize)
	data[0] = 0xab
	var base []ckpt.FrameImage
	if !emptyBase {
		base = []ckpt.FrameImage{{Frame: 3, Data: data}}
	}
	return saveChain(t, base)
}

// saveChain returns the encoding of a chain with the given base image,
// one delta and two journal records.
func saveChain(t testing.TB, base []ckpt.FrameImage) []byte {
	t.Helper()
	mach := &sim.MachineState{CPUs: []sim.CPUState{{ID: 0, Clock: 42, RNG: 7}}}
	chain := &ckpt.Chain{
		Base: &snapshot.Snapshot{
			Meta:    snapshot.Meta{Config: "fom", CPUs: 1, Seed: 1, SnapAt: 2, TraceOps: 8},
			Machine: mach,
			Trace:   []byte{0, 0, 0, 0},
		},
		BaseFrames: base,
		Deltas: []*ckpt.Delta{{
			Epoch: 1, UpTo: 4,
			Units:   []ckpt.Unit{{Start: 3, Count: 1}},
			Frames:  []ckpt.FrameImage{{Frame: 3}},
			Machine: mach,
		}},
		Journal: &snapshot.Journal{},
	}
	chain.Journal.Append([]byte{1, 2})
	chain.Journal.Append([]byte{3})
	var buf bytes.Buffer
	if err := chain.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// twoFrameChain returns a chain whose base image holds frames 3 and 5,
// both with contents.
func twoFrameChain(t testing.TB) []byte {
	t.Helper()
	a, b := make([]byte, mem.FrameSize), make([]byte, mem.FrameSize)
	a[0], b[0] = 0xaa, 0xbb
	return saveChain(t, []ckpt.FrameImage{{Frame: 3, Data: a}, {Frame: 5, Data: b}})
}

// rewriteSection applies edit to the payload of the first section
// tagged tag in an encoded chain and refreshes its checksum, so the
// damage is structural, not a CRC mismatch.
func rewriteSection(t testing.TB, b []byte, tag string, edit func(payload []byte)) []byte {
	t.Helper()
	b = append([]byte(nil), b...)
	for off := len(ckpt.Magic) + 4; off+8 <= len(b); {
		n := int(binary.LittleEndian.Uint32(b[off+4:]))
		payload := b[off+8 : off+8+n]
		if string(b[off:off+4]) == tag {
			edit(payload)
			binary.LittleEndian.PutUint32(b[off+8+n:], crc32.ChecksumIEEE(payload))
			return b
		}
		off += 8 + n + 4
	}
	t.Fatalf("no %s section in the chain", tag)
	return nil
}

// framesOutOfOrder returns a chain whose base image lists frame 5
// before frame 3.
func framesOutOfOrder(t testing.TB) []byte {
	return rewriteSection(t, twoFrameChain(t), "BIMG", func(p []byte) {
		second := 4 + 9 + mem.FrameSize
		binary.LittleEndian.PutUint64(p[4:], 5)
		binary.LittleEndian.PutUint64(p[second:], 3)
	})
}

// duplicateFrame returns a chain whose base image lists frame 3 twice.
func duplicateFrame(t testing.TB) []byte {
	return rewriteSection(t, twoFrameChain(t), "BIMG", func(p []byte) {
		binary.LittleEndian.PutUint64(p[4+9+mem.FrameSize:], 3)
	})
}

// badPresenceByte returns a chain whose delta marks its all-zero frame
// with presence byte 2.
func badPresenceByte(t testing.TB) []byte {
	return rewriteSection(t, savedChain(t, false), "DELT", func(p []byte) {
		// epoch, up-to, one unit, frame-list length, count, frame number
		off := 4 + 8 + 4 + 16 + 4 + 4 + 8
		if p[off] != 0 {
			t.Fatalf("delta presence byte %d, want 0", p[off])
		}
		p[off] = 2
	})
}

// TestChainLoadRejectsMalformedFrameLists: frame numbers must strictly
// ascend and presence bytes be 0 or 1, as Save writes them.
func TestChainLoadRejectsMalformedFrameLists(t *testing.T) {
	if _, err := ckpt.Load(bytes.NewReader(twoFrameChain(t))); err != nil {
		t.Fatalf("well-formed two-frame chain: %v", err)
	}
	for name, b := range map[string][]byte{
		"out of order":  framesOutOfOrder(t),
		"duplicate":     duplicateFrame(t),
		"presence byte": badPresenceByte(t),
	} {
		_, err := ckpt.Load(bytes.NewReader(b))
		var corrupt *snapshot.ErrCorrupt
		if !errors.As(err, &corrupt) {
			t.Errorf("%s: Load error %v, want ErrCorrupt", name, err)
		}
	}
}

// TestSaveRejectsUnloadableFrameLists: Save refuses what Load would
// reject rather than write a file that cannot be read back.
func TestSaveRejectsUnloadableFrameLists(t *testing.T) {
	data := make([]byte, mem.FrameSize)
	for name, frames := range map[string][]ckpt.FrameImage{
		"descending": {{Frame: 5}, {Frame: 3}},
		"duplicate":  {{Frame: 3}, {Frame: 3}},
		"short":      {{Frame: 3, Data: data[:100]}},
		"empty":      {{Frame: 3, Data: data[:0]}},
	} {
		chain := &ckpt.Chain{
			Base:       &snapshot.Snapshot{Machine: &sim.MachineState{}},
			BaseFrames: frames,
		}
		if err := chain.Save(io.Discard); err == nil {
			t.Errorf("%s: Save accepted frame list %v", name, frames)
		}
	}
}

// hugeFrameCount returns a chain whose CRC-valid BIMG section is the
// four bytes ff ff ff ff: a frame image count of 2^32-1 with no frames.
func hugeFrameCount(t testing.TB) []byte {
	t.Helper()
	b := savedChain(t, true)
	// An empty image encodes as a zero count: tag, length 4, payload 0.
	sec := append([]byte("BIMG"), 4, 0, 0, 0, 0, 0, 0, 0)
	i := bytes.Index(b, sec)
	if i < 0 {
		t.Fatal("empty BIMG section not found in the saved chain")
	}
	payload := []byte{0xff, 0xff, 0xff, 0xff}
	copy(b[i+8:], payload)
	binary.LittleEndian.PutUint32(b[i+12:], crc32.ChecksumIEEE(payload))
	return b
}

// TestChainLoadHugeFrameCount: the frame count is untrusted, so a
// section claiming 2^32-1 images in four bytes must fail to decode
// rather than preallocate them.
func TestChainLoadHugeFrameCount(t *testing.T) {
	if _, err := ckpt.Load(bytes.NewReader(hugeFrameCount(t))); err == nil {
		t.Fatal("BIMG section claiming 2^32-1 frame images loaded")
	}
}

// FuzzChainLoad: malformed chain files return errors and never panic,
// and a chain that loads re-saves, loads again and re-saves to the same
// bytes.
func FuzzChainLoad(f *testing.F) {
	f.Add(savedChain(f, false))
	f.Add(hugeFrameCount(f))
	f.Add(framesOutOfOrder(f))
	f.Add(duplicateFrame(f))
	f.Add(badPresenceByte(f))
	f.Fuzz(func(t *testing.T, b []byte) {
		chain, err := ckpt.Load(bytes.NewReader(b))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := chain.Save(&first); err != nil {
			t.Fatalf("re-save: %v", err)
		}
		again, err := ckpt.Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-load of a re-saved chain: %v", err)
		}
		var second bytes.Buffer
		if err := again.Save(&second); err != nil {
			t.Fatalf("second re-save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("second re-save differs from the first")
		}
	})
}
