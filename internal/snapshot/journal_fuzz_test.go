package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"
)

// watermarkRecordLen is the on-media size of the watermark record.
const watermarkRecordLen = recordOverhead + len(watermarkTag) + 8

// isWatermarkPayload reports whether a record payload has the reserved
// watermark shape (tag plus a u64).
func isWatermarkPayload(p []byte) bool {
	return len(p) == len(watermarkTag)+8 && string(p[:len(watermarkTag)]) == watermarkTag
}

// leadingZeroWatermark reports whether data starts with a committed
// watermark record whose value is 0.
func leadingZeroWatermark(data []byte) bool {
	if len(data) < watermarkRecordLen || binary.LittleEndian.Uint32(data) != uint32(len(watermarkTag)+8) {
		return false
	}
	payload := data[4 : 4+len(watermarkTag)+8]
	return isWatermarkPayload(payload) &&
		binary.LittleEndian.Uint64(payload[len(watermarkTag):]) == 0 &&
		binary.LittleEndian.Uint32(data[4+len(payload):]) == crc32.ChecksumIEEE(payload)
}

// FuzzDecodeJournal: DecodeJournal never panics; the torn tail it
// reports lies within the input; the committed prefix it keeps is
// exactly what Encode writes back; and that encoding decodes to the
// same records and watermark with nothing torn.
//
// One input is not canonical. A first record that is a watermark of 0
// decodes (as watermark 0), but Encode never writes a zero watermark,
// so it drops those bytes. If the record after it is itself
// watermark-shaped, the re-encoded stream then starts with that record,
// which re-decodes as the watermark rather than as data; producers
// never write either (ckpt journals encoded ops, whose first byte is
// below the tag's). The seeds zero-watermark and
// zero-watermark-then-watermark-shaped pin both.
//
// The seed corpus in testdata/fuzz/FuzzDecodeJournal also holds a
// clean log, a compacted log, a torn tail and a flipped CRC byte.
func FuzzDecodeJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		j, torn := DecodeJournal(data)
		if torn < 0 || torn > len(data) {
			t.Fatalf("torn = %d for %d bytes", torn, len(data))
		}
		want := data[:len(data)-torn]
		zeroWM := leadingZeroWatermark(want)
		if zeroWM {
			want = want[watermarkRecordLen:]
		}
		enc := j.Encode()
		if !bytes.Equal(enc, want) {
			t.Fatalf("Encode of the decoded journal differs from its committed prefix:\nenc:  %x\nwant: %x", enc, want)
		}
		if len(enc) != j.EncodedLen() {
			t.Fatalf("EncodedLen = %d, Encode wrote %d bytes", j.EncodedLen(), len(enc))
		}
		if zeroWM && j.Len() > 0 && isWatermarkPayload(j.Records()[0]) {
			return // the re-encoded first record now reads as the watermark
		}
		again, torn2 := DecodeJournal(enc)
		if torn2 != 0 {
			t.Fatalf("re-decoding an encoded journal tore %d bytes", torn2)
		}
		if again.Watermark() != j.Watermark() || !reflect.DeepEqual(again.Records(), j.Records()) {
			t.Fatalf("round trip changed the journal: watermark %d → %d, %d → %d records",
				j.Watermark(), again.Watermark(), j.Len(), again.Len())
		}
	})
}

// TestZeroWatermarkSeedsAreTheException pins that the two
// zero-watermark seeds really take the fuzz target's exception paths,
// and that Encode drops the zero watermark record.
func TestZeroWatermarkSeedsAreTheException(t *testing.T) {
	rec := func(payload []byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		b = append(b, payload...)
		return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	}
	wm := func(v uint64) []byte {
		return rec(binary.LittleEndian.AppendUint64([]byte(watermarkTag), v))
	}
	data := append(wm(0), rec([]byte{0x01, 0xaa})...)
	if !leadingZeroWatermark(data) {
		t.Fatal("leadingZeroWatermark missed a zero watermark record")
	}
	j, torn := DecodeJournal(data)
	if torn != 0 || j.Watermark() != 0 || j.Len() != 1 {
		t.Fatalf("decoded wm=%d len=%d torn=%d", j.Watermark(), j.Len(), torn)
	}
	if !bytes.Equal(j.Encode(), data[watermarkRecordLen:]) {
		t.Fatal("Encode kept the zero watermark record")
	}
	// A second watermark-shaped record decodes as data, then re-decodes
	// as the watermark once the zero record is dropped.
	data = append(wm(0), wm(5)...)
	j, _ = DecodeJournal(data)
	if j.Watermark() != 0 || j.Len() != 1 {
		t.Fatalf("decoded wm=%d len=%d", j.Watermark(), j.Len())
	}
	again, _ := DecodeJournal(j.Encode())
	if again.Watermark() != 5 || again.Len() != 0 {
		t.Fatalf("re-decoded wm=%d len=%d, want the data record read as watermark 5", again.Watermark(), again.Len())
	}
	// A non-zero watermark is not the exception.
	if leadingZeroWatermark(wm(3)) {
		t.Fatal("leadingZeroWatermark matched watermark 3")
	}
}
