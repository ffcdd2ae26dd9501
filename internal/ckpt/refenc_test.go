package ckpt_test

import (
	"bytes"
	"hash/crc32"
	"io"
	"testing"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// refSave is the chain encoder Chain.Save replaced: every section
// built in its own buffer (the base snapshot file included) and
// streamed out with a write per header, payload and checksum. It
// survives only as the reference the one-buffer encoder must match
// byte for byte, so it keeps its own copy of the section framing and
// of the snapshot, machine-state and journal encodings.
func refSave(c *ckpt.Chain) []byte {
	var w bytes.Buffer
	w.WriteString(ckpt.Magic)
	w.Write(refU32(nil, 1))
	refSection(&w, "BASE", refSnapshot(c.Base))
	refSection(&w, "BIMG", refFrames(c.BaseFrames))
	for _, d := range c.Deltas {
		refSection(&w, "DELT", refDelta(d))
	}
	jnl := c.Journal
	if jnl == nil {
		jnl = &snapshot.Journal{}
	}
	refSection(&w, "JRNL", refJournal(jnl))
	return w.Bytes()
}

func refU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func refU64(b []byte, v uint64) []byte { return refU32(refU32(b, uint32(v)), uint32(v>>32)) }

func refStr(b []byte, s string) []byte { return append(refU32(b, uint32(len(s))), s...) }

func refSection(w *bytes.Buffer, tag string, payload []byte) {
	w.Write(refU32([]byte(tag), uint32(len(payload))))
	w.Write(payload)
	w.Write(refU32(nil, crc32.ChecksumIEEE(payload)))
}

func refSnapshot(s *snapshot.Snapshot) []byte {
	var w bytes.Buffer
	w.WriteString("O1MSNAP\x00")
	w.Write(refU32(nil, 2))
	m := refStr(nil, s.Meta.Config)
	m = refU32(m, uint32(s.Meta.CPUs))
	m = refU64(m, s.Meta.Seed)
	m = refU64(m, uint64(s.Meta.SnapAt))
	m = refU64(m, uint64(s.Meta.TraceOps))
	tier := byte(0)
	if s.Meta.Tier {
		tier = 1
	}
	m = append(m, tier)
	refSection(&w, "META", m)
	refSection(&w, "MACH", refMachine(s.Machine))
	refSection(&w, "TRAC", s.Trace)
	refSection(&w, "SUMS", refU64(nil, s.MemChecksum))
	return w.Bytes()
}

func refMachine(st *sim.MachineState) []byte {
	counters := func(b []byte, cs []sim.CounterValue) []byte {
		b = refU32(b, uint32(len(cs)))
		for _, c := range cs {
			b = refU64(refStr(b, c.Name), c.Value)
		}
		return b
	}
	b := refU32(nil, uint32(st.Current))
	b = refU32(b, uint32(len(st.CPUs)))
	for _, c := range st.CPUs {
		b = refU32(b, uint32(c.ID))
		b = refU64(b, uint64(c.Clock))
		b = refU64(b, c.RNG)
		b = counters(b, c.Counters)
	}
	b = refU32(b, uint32(len(st.Stats)))
	for _, s := range st.Stats {
		b = counters(refStr(b, s.Name), s.Counters)
	}
	return b
}

func refFrames(frames []ckpt.FrameImage) []byte {
	b := refU32(nil, uint32(len(frames)))
	for _, fi := range frames {
		b = refU64(b, uint64(fi.Frame))
		if fi.Data == nil {
			b = append(b, 0)
			continue
		}
		b = append(b, 1)
		b = append(b, fi.Data...)
	}
	return b
}

func refDelta(d *ckpt.Delta) []byte {
	b := refU32(nil, uint32(d.Epoch))
	b = refU64(b, uint64(d.UpTo))
	b = refU32(b, uint32(len(d.Units)))
	for _, u := range d.Units {
		b = refU64(refU64(b, uint64(u.Start)), u.Count)
	}
	fr := refFrames(d.Frames)
	b = append(refU32(b, uint32(len(fr))), fr...)
	ms := refMachine(d.Machine)
	b = append(refU32(b, uint32(len(ms))), ms...)
	return refU64(b, d.MemChecksum)
}

func refJournal(j *snapshot.Journal) []byte {
	var b []byte
	emit := func(rec []byte) {
		b = append(refU32(b, uint32(len(rec))), rec...)
		b = refU32(b, crc32.ChecksumIEEE(rec))
	}
	if j.Watermark() != 0 {
		emit(refU64([]byte("O1WMARK\x00"), j.Watermark()))
	}
	for _, rec := range j.Records() {
		emit(rec)
	}
	return b
}

// TestSaveMatchesReferenceEncoder builds chains on every configuration
// (with and without a tier engine, journal whole and compacted) and
// requires Chain.Save to produce exactly the reference encoder's
// bytes. Loading each chain must hand out frame images capped at one
// frame, and re-saving the loaded chain must reproduce the file.
func TestSaveMatchesReferenceEncoder(t *testing.T) {
	for _, tiered := range []bool{false, true} {
		for _, cfg := range check.AllConfigs {
			opts := check.Options{Seed: 3, Ops: 400, CPUs: 2, Tier: tiered}
			chain, err := check.BuildChain(cfg, opts, 100, []int{200, 300, 400})
			if err != nil {
				t.Fatalf("%s (tier %v): %v", cfg, tiered, err)
			}
			for _, compact := range []uint64{0, 150} {
				if err := chain.Journal.Compact(compact); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := chain.Save(&buf); err != nil {
					t.Fatalf("%s (tier %v): Save: %v", cfg, tiered, err)
				}
				saved := buf.Bytes()
				if want := refSave(chain); !bytes.Equal(saved, want) {
					t.Fatalf("%s (tier %v, compacted to %d): Save wrote %d bytes differing from the reference encoder's %d",
						cfg, tiered, compact, len(saved), len(want))
				}
				// A writer other than a *bytes.Buffer gets its own buffer.
				var plain bytes.Buffer
				if err := chain.Save(struct{ io.Writer }{&plain}); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(plain.Bytes(), saved) {
					t.Fatalf("%s (tier %v): Save to a plain io.Writer differs from Save to a bytes.Buffer", cfg, tiered)
				}
				loaded, err := ckpt.Load(bytes.NewReader(saved))
				if err != nil {
					t.Fatalf("%s (tier %v): Load: %v", cfg, tiered, err)
				}
				images := 0
				for _, fs := range append([][]ckpt.FrameImage{loaded.BaseFrames}, deltaFrames(loaded)...) {
					for _, fi := range fs {
						if fi.Data != nil && (len(fi.Data) != mem.FrameSize || cap(fi.Data) != mem.FrameSize) {
							t.Fatalf("%s: frame %d decoded with len %d cap %d, want %d", cfg, fi.Frame, len(fi.Data), cap(fi.Data), mem.FrameSize)
						}
						if fi.Data != nil {
							images++
						}
					}
				}
				if images == 0 {
					t.Fatalf("%s (tier %v): chain holds no frame contents; the pin covers no frame bytes", cfg, tiered)
				}
				var again bytes.Buffer
				if err := loaded.Save(&again); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again.Bytes(), saved) {
					t.Fatalf("%s (tier %v): re-save of the loaded chain differs", cfg, tiered)
				}
			}
		}
	}
}

func deltaFrames(c *ckpt.Chain) [][]ckpt.FrameImage {
	var out [][]ckpt.FrameImage
	for _, d := range c.Deltas {
		out = append(out, d.Frames)
	}
	return out
}

// TestDecodedFrameAppendKeepsNeighbour: decoded images share the
// section payload, so appending to one must reallocate rather than
// write over the next image's bytes.
func TestDecodedFrameAppendKeepsNeighbour(t *testing.T) {
	loaded, err := ckpt.Load(bytes.NewReader(twoFrameChain(t)))
	if err != nil {
		t.Fatal(err)
	}
	a, b := loaded.BaseFrames[0].Data, loaded.BaseFrames[1].Data
	before := b[:16:16]
	want := append([]byte(nil), before...)
	_ = append(a, 0xee, 0xee, 0xee, 0xee, 0xee, 0xee, 0xee, 0xee, 0xee, 0xee, 0xee, 0xee, 0xee)
	if !bytes.Equal(before, want) {
		t.Fatal("append to one decoded frame image overwrote its neighbour")
	}
}

// BenchmarkChainSaveLoad saves a chain built on the ranges
// configuration and loads it back.
func BenchmarkChainSaveLoad(b *testing.B) {
	chain, err := check.BuildChain("ranges", check.Options{Seed: 1, Ops: 600, CPUs: 2}, 150, []int{300, 450, 600})
	if err != nil {
		b.Fatal(err)
	}
	size := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := chain.Save(&buf); err != nil {
			b.Fatal(err)
		}
		size = buf.Len()
		if _, err := ckpt.Load(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(size), "chain-bytes")
}
