package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"
)

// FuzzDecodeJournal: DecodeJournal never panics; the torn tail it
// reports lies within the input; the committed prefix it keeps is
// exactly what Encode writes back; and that encoding decodes to the
// same records and watermark with nothing torn.
//
// A first record that is a watermark of 0 is never written by Encode,
// so DecodeJournal treats it as a corrupt tail; the seeds
// zero-watermark and zero-watermark-then-watermark-shaped pin that
// such a stream, even when the record after it is itself
// watermark-shaped, decodes to an empty journal and round-trips.
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
		enc := j.Encode()
		if !bytes.Equal(enc, want) {
			t.Fatalf("Encode of the decoded journal differs from its committed prefix:\nenc:  %x\nwant: %x", enc, want)
		}
		if len(enc) != j.EncodedLen() {
			t.Fatalf("EncodedLen = %d, Encode wrote %d bytes", j.EncodedLen(), len(enc))
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

// TestZeroWatermarkIsTornTail pins that a stream starting with a
// watermark record of 0, which Encode never writes, decodes as a torn
// tail from its first byte, also when a watermark-shaped record
// follows; that a non-zero watermark still decodes; and that a
// zero-watermark-shaped record after the first is data.
func TestZeroWatermarkIsTornTail(t *testing.T) {
	rec := func(payload []byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		b = append(b, payload...)
		return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	}
	wmPayload := func(v uint64) []byte {
		return binary.LittleEndian.AppendUint64([]byte(watermarkTag), v)
	}
	wm := func(v uint64) []byte { return rec(wmPayload(v)) }
	for _, data := range [][]byte{
		append(wm(0), rec([]byte{0x01, 0xaa})...),
		append(wm(0), wm(5)...),
	} {
		j, torn := DecodeJournal(data)
		if torn != len(data) || j.Watermark() != 0 || j.Len() != 0 {
			t.Fatalf("decoded wm=%d len=%d torn=%d of %d bytes", j.Watermark(), j.Len(), torn, len(data))
		}
		if enc := j.Encode(); len(enc) != 0 {
			t.Fatalf("Encode wrote %d bytes for an empty journal", len(enc))
		}
	}
	data := append(wm(3), wm(0)...)
	j, torn := DecodeJournal(data)
	if torn != 0 || j.Watermark() != 3 || j.Len() != 1 || !bytes.Equal(j.Records()[0], wmPayload(0)) {
		t.Fatalf("decoded wm=%d len=%d torn=%d", j.Watermark(), j.Len(), torn)
	}
	if !bytes.Equal(j.Encode(), data) {
		t.Fatal("Encode did not write the stream back")
	}
}
