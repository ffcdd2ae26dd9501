// Package snapshot implements the persistence subsystem: a versioned,
// CRC-protected binary checkpoint of a simulated machine, and a
// write-ahead metadata journal with crash-point injection.
//
// The design is log-structured. A checkpoint records everything that
// determines a machine's forward behaviour at the simulation level —
// the seeded configuration, the operation trace executed so far, the
// captured per-CPU clocks/RNG states/counters, and a content digest of
// physical memory. Because the simulator is deterministic (state is a
// pure function of (configuration, seed, operation prefix)), restoring
// is reconstruction: re-execute the recorded prefix on a fresh machine,
// then *prove* bit-identity against the captured state. The journal
// extends a checkpoint with the records written after it; recovery
// replays the journal's valid prefix, discarding a torn tail.
//
// Every section and every journal record carries a CRC32 so torn or
// corrupted media is detected, never silently trusted — the
// crash-consistency contract of a persistent-memory metadata store.
package snapshot

import (
	"fmt"
	"hash/crc32"
	"io"
)

// Format constants. The magic and version gate Load: a file written by
// a future incompatible layout is rejected, not misparsed.
const (
	magic   = "O1MSNAP\x00"
	version = 2 // v2: meta gained the tier flag
)

// Section tags.
const (
	secMeta  = "META"
	secMach  = "MACH"
	secTrace = "TRAC"
	secSums  = "SUMS"
)

// ErrCorrupt reports a structurally damaged snapshot or journal.
type ErrCorrupt struct {
	What string
}

// Error implements error.
func (e *ErrCorrupt) Error() string { return "snapshot: corrupt " + e.What }

// enc is an append-only little-endian encoder.
type enc struct {
	b []byte
}

func (e *enc) u8(v byte) { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) {
	e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
func (e *enc) u64(v uint64) {
	e.u32(uint32(v))
	e.u32(uint32(v >> 32))
}
func (e *enc) i64(v int64) { e.u64(uint64(v)) }
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// dec is a bounds-checked little-endian decoder. The first
// out-of-bounds read latches err; later reads return zero values, so
// callers can decode a whole structure and check err once.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = &ErrCorrupt{What: what}
	}
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) {
		d.fail("truncated field")
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

func (d *dec) u8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *dec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (d *dec) u64() uint64 {
	lo := d.u32()
	hi := d.u32()
	return uint64(lo) | uint64(hi)<<32
}

func (d *dec) i64() int64 { return int64(d.u64()) }

func (d *dec) str() string {
	n := d.u32()
	if d.err == nil && uint64(n) > uint64(len(d.b)-d.off) {
		d.fail("truncated string")
	}
	b := d.take(int(n))
	return string(b)
}

func (d *dec) done() bool { return d.err == nil && d.off == len(d.b) }

// SectionOverhead is the framing a section adds around its payload:
// the 4-byte tag, the u32 length and the CRC32.
const SectionOverhead = 12

// AppendSection appends one tagged, CRC-protected section holding
// payload to b. It is the on-media framing primitive shared with
// layered formats (the incremental-checkpoint chains of
// internal/ckpt): 4-byte tag, u32 little-endian payload length,
// payload, CRC32 (IEEE) of the payload.
func AppendSection(b []byte, tag string, payload []byte) []byte {
	return AppendSectionFunc(b, tag, len(payload), func(b []byte) []byte { return append(b, payload...) })
}

// AppendSectionFunc appends a section whose n-byte payload fill
// appends in place, so a payload is encoded straight into its file
// buffer. It panics when fill appends other than n bytes: the length
// field would lie.
func AppendSectionFunc(b []byte, tag string, n int, fill func([]byte) []byte) []byte {
	if len(tag) != 4 {
		panic("snapshot: section tag must be 4 bytes")
	}
	e := enc{b: append(b, tag...)}
	e.u32(uint32(n))
	start := len(e.b)
	e.b = fill(e.b)
	if got := len(e.b) - start; got != n {
		panic(fmt.Sprintf("snapshot: section %q payload of %d bytes, declared %d", tag, got, n))
	}
	e.u32(crc32.ChecksumIEEE(e.b[start:]))
	return e.b
}

// CutSection parses the section at the front of b, verifying its CRC,
// and returns its tag, its payload and the bytes after it. It copies
// nothing: the payload is a sub-slice of b, capped at its end, so it
// stays valid only while b is not overwritten. It returns io.EOF when
// b is empty.
func CutSection(b []byte) (tag string, payload, rest []byte, err error) {
	if len(b) == 0 {
		return "", nil, nil, io.EOF
	}
	if len(b) < 8 {
		return "", nil, nil, &ErrCorrupt{What: "truncated section header"}
	}
	tag = string(b[:4])
	n := uint64(b[4]) | uint64(b[5])<<8 | uint64(b[6])<<16 | uint64(b[7])<<24
	switch body := uint64(len(b) - 8); {
	case n > body:
		return "", nil, nil, &ErrCorrupt{What: fmt.Sprintf("section %q truncated", tag)}
	case n+4 > body:
		return "", nil, nil, &ErrCorrupt{What: fmt.Sprintf("section %q missing checksum", tag)}
	}
	payload, c := b[8:8+n:8+n], b[8+n:]
	want := uint32(c[0]) | uint32(c[1])<<8 | uint32(c[2])<<16 | uint32(c[3])<<24
	if got := crc32.ChecksumIEEE(payload); got != want {
		return "", nil, nil, &ErrCorrupt{What: fmt.Sprintf("section %q checksum %#x, want %#x", tag, got, want)}
	}
	return tag, payload, c[4:], nil
}

// ReadAll reads r to its end. A reader that reports how much it holds
// (a bytes.Buffer or bytes.Reader) is read with one allocation of
// exactly that size.
func ReadAll(r io.Reader) ([]byte, error) {
	if l, ok := r.(interface{ Len() int }); ok {
		b := make([]byte, l.Len())
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		return b, nil
	}
	return io.ReadAll(r)
}
