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
// in the snapshot framing (snapshot.AppendSection). BASE holds a full
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

// Save writes the chain in the versioned binary format. It sizes the
// whole file first, encodes every section straight into one buffer of
// exactly that size and writes it with a single Write; a *bytes.Buffer
// destination lends its own spare capacity as that buffer. It refuses
// a frame image list Load would reject: frames not strictly ascending,
// or contents other than nil or one frame.
func (c *Chain) Save(w io.Writer) error {
	jnl := c.Journal
	if jnl == nil {
		jnl = &snapshot.Journal{}
	}
	imgLen, err := framesLen(c.BaseFrames)
	if err != nil {
		return err
	}
	baseLen := c.Base.EncodedLen()
	size := len(Magic) + 4 + snapshot.SectionOverhead + baseLen +
		snapshot.SectionOverhead + imgLen + snapshot.SectionOverhead + jnl.EncodedLen()
	for _, d := range c.Deltas {
		n, err := deltaLen(d)
		if err != nil {
			return err
		}
		size += snapshot.SectionOverhead + n
	}
	var b []byte
	if buf, ok := w.(*bytes.Buffer); ok {
		buf.Grow(size)
		b = buf.AvailableBuffer()
	} else {
		b = make([]byte, 0, size)
	}
	b = append(b, Magic...)
	b = appendU32(b, chainVersion)
	b = snapshot.AppendSectionFunc(b, secBase, baseLen, c.Base.AppendEncoded)
	b = snapshot.AppendSectionFunc(b, secBImg, imgLen, func(b []byte) []byte {
		return appendFrames(b, c.BaseFrames)
	})
	for _, d := range c.Deltas {
		n, _ := deltaLen(d) // checked while sizing
		b = snapshot.AppendSectionFunc(b, secDelta, n, func(b []byte) []byte {
			return appendDelta(b, d)
		})
	}
	b = snapshot.AppendSectionFunc(b, secJrnl, jnl.EncodedLen(), jnl.AppendEncoded)
	_, err = w.Write(b)
	return err
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

// minFrameBytes is the encoded size of an all-zero frame image:
// frame number and presence byte.
const minFrameBytes = 9

// framesLen returns the encoded size of a frame image list, checking
// that it is one Load accepts.
func framesLen(frames []FrameImage) (int, error) {
	n := 4
	for i, fi := range frames {
		if i > 0 && fi.Frame <= frames[i-1].Frame {
			return 0, fmt.Errorf("ckpt: frame image %d (frame %d) not above frame %d", i, fi.Frame, frames[i-1].Frame)
		}
		n += minFrameBytes
		switch len(fi.Data) {
		case 0:
			if fi.Data != nil {
				return 0, fmt.Errorf("ckpt: frame %d has empty, non-nil contents", fi.Frame)
			}
		case mem.FrameSize:
			n += mem.FrameSize
		default:
			return 0, fmt.Errorf("ckpt: frame %d contents of %d bytes, want %d", fi.Frame, len(fi.Data), mem.FrameSize)
		}
	}
	return n, nil
}

// appendFrames encodes a frame image list checked by framesLen: a u32
// count, then per frame its u64 number, a presence byte (0: all zero,
// 1: contents follow) and the contents.
func appendFrames(b []byte, frames []FrameImage) []byte {
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

// decodeFrames parses an appendFrames encoding. Each image's Data is a
// sub-slice of b capped at one frame, so the images share b's storage
// and an append to one can never overwrite its neighbour.
func decodeFrames(b []byte) ([]FrameImage, error) {
	d := reader{b: b}
	n := d.u32()
	// The count is untrusted: preallocate no more images than the
	// remaining bytes can hold.
	out := make([]FrameImage, 0, min(int(n), len(b)/minFrameBytes))
	for i := uint32(0); i < n && d.err == nil; i++ {
		fi := FrameImage{Frame: mem.Frame(d.u64())}
		if len(out) > 0 && fi.Frame <= out[len(out)-1].Frame {
			return nil, &snapshot.ErrCorrupt{What: "frame image section: frames not ascending"}
		}
		switch d.u8() {
		case 0:
		case 1:
			fi.Data = d.take(mem.FrameSize)
		default:
			return nil, &snapshot.ErrCorrupt{What: "frame image section: presence byte not 0 or 1"}
		}
		out = append(out, fi)
	}
	if !d.done() {
		return nil, &snapshot.ErrCorrupt{What: "frame image section"}
	}
	return out, nil
}

// deltaLen returns the encoded size of d, checking its frame images.
func deltaLen(d *Delta) (int, error) {
	fr, err := framesLen(d.Frames)
	if err != nil {
		return 0, fmt.Errorf("delta %d: %w", d.Epoch, err)
	}
	return 4 + 8 + 4 + 16*len(d.Units) + 4 + fr + 4 + snapshot.MachineStateLen(d.Machine) + 8, nil
}

// appendDelta encodes a delta checked by deltaLen.
func appendDelta(b []byte, d *Delta) []byte {
	b = appendU32(b, uint32(d.Epoch))
	b = appendU64(b, uint64(d.UpTo))
	b = appendU32(b, uint32(len(d.Units)))
	for _, u := range d.Units {
		b = appendU64(b, uint64(u.Start))
		b = appendU64(b, u.Count)
	}
	fr, _ := framesLen(d.Frames) // checked by deltaLen
	b = appendU32(b, uint32(fr))
	b = appendFrames(b, d.Frames)
	b = appendU32(b, uint32(snapshot.MachineStateLen(d.Machine)))
	b = snapshot.AppendMachineState(b, d.Machine)
	return appendU64(b, d.MemChecksum)
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
	out := r.b[r.off : r.off+n : r.off+n]
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

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
