package snapshot

import (
	"fmt"
	"hash/crc32"
)

// Journal is a write-ahead log of opaque metadata records appended
// after a checkpoint. On media it is a pure record stream — no header,
// no trailer — so a crash can cut it at ANY byte and recovery still
// works: Decode returns the longest valid record prefix and reports
// the torn tail. Each record is framed as
//
//	length   uint32 (little-endian, payload bytes)
//	payload  []byte
//	crc32    uint32 (IEEE, over the payload)
//
// A record is durable exactly when its trailing CRC is fully on media
// and matches — the classic WAL commit rule.
//
// Compaction: once a checkpoint supersedes a log prefix, Compact drops
// those records and advances the watermark — the sequence number of the
// first retained record. A non-zero watermark is encoded as a special
// first record (see watermarkTag), so a compacted log still starts at a
// record boundary and the torn-tail rule is unchanged: rewriting the
// compacted log is a whole-file replace (old media stays valid until
// the new log is durable), and tears hit only the appended tail.
type Journal struct {
	recs [][]byte
	// watermark is the sequence number of recs[0]; records before it
	// were superseded by a checkpoint and compacted away. Sequence
	// numbers count from 0 at the journal's creation.
	watermark uint64
}

// watermarkTag prefixes the payload of the reserved watermark record. A
// data record payload never collides with it: the tag is only honoured
// in the first record of a stream, and producers whose first data
// record could start with these 8 bytes simply must not compact (ours,
// encoded ops, start with a one-byte op kind < 0x4f).
const watermarkTag = "O1WMARK\x00"

// Append adds one record to the journal's in-memory tail.
func (j *Journal) Append(rec []byte) {
	cp := make([]byte, len(rec))
	copy(cp, rec)
	j.recs = append(j.recs, cp)
}

// Len returns the number of records.
func (j *Journal) Len() int { return len(j.recs) }

// Records returns the records in append order. The slice is shared;
// do not modify.
func (j *Journal) Records() [][]byte { return j.recs }

// Watermark returns the sequence number of the first retained record:
// the number of records dropped by compaction over the journal's life.
func (j *Journal) Watermark() uint64 { return j.watermark }

// Compact drops every record with sequence number below upTo — they
// are superseded by a checkpoint that captured their effects — and
// advances the watermark. Compacting at or below the current watermark
// is a no-op; compacting past the end is an error (the checkpoint
// would claim records that were never written).
func (j *Journal) Compact(upTo uint64) error {
	if upTo <= j.watermark {
		return nil
	}
	if upTo > j.watermark+uint64(len(j.recs)) {
		return fmt.Errorf("snapshot: compact to %d, but journal ends at %d", upTo, j.watermark+uint64(len(j.recs)))
	}
	drop := upTo - j.watermark
	j.recs = append([][]byte(nil), j.recs[drop:]...)
	j.watermark = upTo
	return nil
}

// Encode serializes the journal as a record stream. A compacted
// journal (non-zero watermark) starts with the reserved watermark
// record.
func (j *Journal) Encode() []byte {
	return j.AppendEncoded(make([]byte, 0, j.EncodedLen()))
}

// recordOverhead is the framing a record adds: u32 length and CRC32.
const recordOverhead = 8

// EncodedLen returns the exact size of the stream Encode produces.
func (j *Journal) EncodedLen() int {
	n := 0
	if j.watermark != 0 {
		n += recordOverhead + len(watermarkTag) + 8
	}
	for _, rec := range j.recs {
		n += recordOverhead + len(rec)
	}
	return n
}

// AppendEncoded appends the stream Encode produces to b.
func (j *Journal) AppendEncoded(b []byte) []byte {
	e := enc{b: b}
	emit := func(rec []byte) {
		e.u32(uint32(len(rec)))
		e.b = append(e.b, rec...)
		e.u32(crc32.ChecksumIEEE(rec))
	}
	if j.watermark != 0 {
		w := enc{b: make([]byte, 0, len(watermarkTag)+8)}
		w.b = append(w.b, watermarkTag...)
		w.u64(j.watermark)
		emit(w.b)
	}
	for _, rec := range j.recs {
		emit(rec)
	}
	return e.b
}

// DecodeJournal parses a (possibly torn) record stream. It returns the
// journal holding every fully-committed record and the number of
// trailing bytes discarded as a torn or corrupt tail (0 for a clean
// log). Decoding never fails: crash-cut media is an expected input,
// and the valid prefix is exactly what recovery may trust.
//
// The decoding is canonical: Encode of the result writes back exactly
// the committed prefix. Encode never writes a watermark of 0, so a
// stream whose first record is one was not written by Encode; it is
// discarded whole as a corrupt tail rather than read as watermark 0.
func DecodeJournal(data []byte) (*Journal, int) {
	j := &Journal{}
	off := 0
	first := true
	for {
		if len(data)-off < 4 {
			break
		}
		n := int(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		if len(data)-off-4 < n+4 {
			break // payload or CRC not fully on media: torn record
		}
		payload := data[off+4 : off+4+n]
		c := off + 4 + n
		want := uint32(data[c]) | uint32(data[c+1])<<8 | uint32(data[c+2])<<16 | uint32(data[c+3])<<24
		if crc32.ChecksumIEEE(payload) != want {
			break // bit rot or a cut that landed inside the CRC
		}
		if first && len(payload) == len(watermarkTag)+8 && string(payload[:len(watermarkTag)]) == watermarkTag {
			d := &dec{b: payload[len(watermarkTag):]}
			if j.watermark = d.u64(); j.watermark == 0 {
				break
			}
		} else {
			j.Append(payload)
		}
		first = false
		off = c + 4
	}
	return j, len(data) - off
}
