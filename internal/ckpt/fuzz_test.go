package ckpt_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
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
	mach := &sim.MachineState{CPUs: []sim.CPUState{{ID: 0, Clock: 42, RNG: 7}}}
	data := make([]byte, mem.FrameSize)
	data[0] = 0xab
	chain := &ckpt.Chain{
		Base: &snapshot.Snapshot{
			Meta:    snapshot.Meta{Config: "fom", CPUs: 1, Seed: 1, SnapAt: 2, TraceOps: 8},
			Machine: mach,
			Trace:   []byte{0, 0, 0, 0},
		},
		Deltas: []*ckpt.Delta{{
			Epoch: 1, UpTo: 4,
			Units:   []ckpt.Unit{{Start: 3, Count: 1}},
			Frames:  []ckpt.FrameImage{{Frame: 3}},
			Machine: mach,
		}},
		Journal: &snapshot.Journal{},
	}
	if !emptyBase {
		chain.BaseFrames = []ckpt.FrameImage{{Frame: 3, Data: data}}
	}
	chain.Journal.Append([]byte{1, 2})
	chain.Journal.Append([]byte{3})
	var buf bytes.Buffer
	if err := chain.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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
// and a chain that loads re-saves and loads again.
func FuzzChainLoad(f *testing.F) {
	f.Add(savedChain(f, false))
	f.Add(hugeFrameCount(f))
	f.Fuzz(func(t *testing.T, b []byte) {
		chain, err := ckpt.Load(bytes.NewReader(b))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := chain.Save(&buf); err != nil {
			t.Fatalf("re-save: %v", err)
		}
		if _, err := ckpt.Load(&buf); err != nil {
			t.Fatalf("re-load of a re-saved chain: %v", err)
		}
	})
}
