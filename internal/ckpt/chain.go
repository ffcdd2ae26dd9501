package ckpt

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"repro/internal/mem"
	"repro/internal/snapshot"
)

// On-media chain format: magic, version, then CRC-protected sections
// in the snapshot framing (snapshot.WriteSection). BASE holds a full
// snapshot file verbatim; BIMG the base memory image; one DELT per
// delta in order; JRNL the (possibly compacted) journal stream.
const (
	// Magic identifies a chain file: its first 8 bytes.
	Magic        = "O1MCKPT\x00"
	chainVersion = 1

	secBase  = "BASE"
	secBImg  = "BIMG"
	secDelta = "DELT"
	secJrnl  = "JRNL"
)

// ErrNotChain reports that the input does not start with the chain
// magic.
var ErrNotChain = errors.New("ckpt: not a checkpoint chain file")

// Save writes the chain in the versioned binary format.
func (c *Chain) Save(w io.Writer) error {
	if _, err := io.WriteString(w, Magic); err != nil {
		return err
	}
	var v [4]byte
	putU32(v[:], chainVersion)
	if _, err := w.Write(v[:]); err != nil {
		return err
	}
	var base bytes.Buffer
	if err := c.Base.Save(&base); err != nil {
		return err
	}
	if err := snapshot.WriteSection(w, secBase, base.Bytes()); err != nil {
		return err
	}
	if err := snapshot.WriteSection(w, secBImg, encodeFrames(c.BaseFrames)); err != nil {
		return err
	}
	for _, d := range c.Deltas {
		if err := snapshot.WriteSection(w, secDelta, encodeDelta(d)); err != nil {
			return err
		}
	}
	jnl := c.Journal
	if jnl == nil {
		jnl = &snapshot.Journal{}
	}
	return snapshot.WriteSection(w, secJrnl, jnl.Encode())
}

// Load reads a chain written by Save, verifying magic, version, and
// every section checksum. It returns ErrNotChain if the magic is
// absent.
func Load(r io.Reader) (*Chain, error) {
	var hdr [len(Magic) + 4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, ErrNotChain
	}
	if string(hdr[:len(Magic)]) != Magic {
		return nil, ErrNotChain
	}
	if v := getU32(hdr[len(Magic):]); v != chainVersion {
		return nil, fmt.Errorf("ckpt: chain format version %d, this build reads %d", v, chainVersion)
	}
	c := &Chain{}
	seen := make(map[string]bool)
	lastUpTo := -1
	for {
		tag, payload, err := snapshot.ReadSection(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if tag != secDelta && seen[tag] {
			return nil, &snapshot.ErrCorrupt{What: "duplicate chain section " + tag}
		}
		seen[tag] = true
		switch tag {
		case secBase:
			snap, err := snapshot.Load(bytes.NewReader(payload))
			if err != nil {
				return nil, err
			}
			c.Base = snap
			lastUpTo = snap.Meta.SnapAt
		case secBImg:
			frames, err := decodeFrames(payload)
			if err != nil {
				return nil, err
			}
			c.BaseFrames = frames
		case secDelta:
			d, err := decodeDelta(payload)
			if err != nil {
				return nil, err
			}
			if d.Epoch != len(c.Deltas)+1 || d.UpTo < lastUpTo {
				return nil, &snapshot.ErrCorrupt{What: "delta chain out of order"}
			}
			lastUpTo = d.UpTo
			c.Deltas = append(c.Deltas, d)
		case secJrnl:
			jnl, torn := snapshot.DecodeJournal(payload)
			if torn != 0 {
				// The chain file is CRC-framed; a torn journal *inside* an
				// intact section means the writer persisted garbage.
				return nil, &snapshot.ErrCorrupt{What: "journal section with torn tail"}
			}
			c.Journal = jnl
		default:
			return nil, &snapshot.ErrCorrupt{What: "unknown chain section " + tag}
		}
	}
	for _, tag := range []string{secBase, secBImg, secJrnl} {
		if !seen[tag] {
			return nil, &snapshot.ErrCorrupt{What: "missing chain section " + tag}
		}
	}
	return c, nil
}

func encodeFrames(frames []FrameImage) []byte {
	var b []byte
	b = appendU32(b, uint32(len(frames)))
	for _, fi := range frames {
		b = appendU64(b, uint64(fi.Frame))
		if fi.Data == nil {
			b = append(b, 0)
			continue
		}
		b = append(b, 1)
		b = append(b, fi.Data...)
	}
	return b
}

// minFrameBytes is the encoded size of an all-zero frame image.
const minFrameBytes = 9

func decodeFrames(b []byte) ([]FrameImage, error) {
	d := reader{b: b}
	n := d.u32()
	// The count is untrusted: preallocate no more images than the
	// remaining bytes can hold.
	out := make([]FrameImage, 0, min(int(n), len(b)/minFrameBytes))
	for i := uint32(0); i < n && d.err == nil; i++ {
		fi := FrameImage{Frame: mem.Frame(d.u64())}
		if d.u8() != 0 {
			data := d.take(mem.FrameSize)
			fi.Data = append([]byte(nil), data...)
		}
		out = append(out, fi)
	}
	if !d.done() {
		return nil, &snapshot.ErrCorrupt{What: "frame image section"}
	}
	return out, nil
}

func encodeDelta(d *Delta) []byte {
	var b []byte
	b = appendU32(b, uint32(d.Epoch))
	b = appendU64(b, uint64(d.UpTo))
	b = appendU32(b, uint32(len(d.Units)))
	for _, u := range d.Units {
		b = appendU64(b, uint64(u.Start))
		b = appendU64(b, u.Count)
	}
	fr := encodeFrames(d.Frames)
	b = appendU32(b, uint32(len(fr)))
	b = append(b, fr...)
	ms := snapshot.EncodeMachineState(d.Machine)
	b = appendU32(b, uint32(len(ms)))
	b = append(b, ms...)
	b = appendU64(b, d.MemChecksum)
	return b
}

func decodeDelta(b []byte) (*Delta, error) {
	r := reader{b: b}
	d := &Delta{
		Epoch: int(r.u32()),
		UpTo:  int(r.u64()),
	}
	nu := r.u32()
	for i := uint32(0); i < nu && r.err == nil; i++ {
		d.Units = append(d.Units, Unit{Start: mem.Frame(r.u64()), Count: r.u64()})
	}
	frames, err := decodeFrames(r.take(int(r.u32())))
	if err != nil || r.err != nil {
		return nil, &snapshot.ErrCorrupt{What: "delta section"}
	}
	d.Frames = frames
	ms, err := snapshot.DecodeMachineState(r.take(int(r.u32())))
	if err != nil || r.err != nil {
		return nil, &snapshot.ErrCorrupt{What: "delta machine state"}
	}
	d.Machine = ms
	d.MemChecksum = r.u64()
	if !r.done() {
		return nil, &snapshot.ErrCorrupt{What: "delta section"}
	}
	return d, nil
}

// reader is a minimal bounds-checked little-endian decoder (the
// snapshot package's is unexported).
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.err = &snapshot.ErrCorrupt{What: "truncated chain field"}
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *reader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return getU32(b)
}

func (r *reader) u64() uint64 {
	lo := r.u32()
	hi := r.u32()
	return uint64(lo) | uint64(hi)<<32
}

func (r *reader) done() bool { return r.err == nil && r.off == len(r.b) }

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return appendU32(appendU32(b, uint32(v)), uint32(v>>32))
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
