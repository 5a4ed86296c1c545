package comm

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzDecodeFrame feeds arbitrary byte streams to the wire-frame decoder.
// The invariants under fuzz: malformed input must only ever produce the
// typed decoder errors (never a panic), the staged payload must never
// exceed the configured frame bound (no attacker-controlled allocation),
// an accepted frame carries one of the contract's seven encodings, and
// any accepted frame must re-encode to a stream the decoder accepts
// again (decode/encode consistency).
func FuzzDecodeFrame(f *testing.F) {
	// Seed corpus: one valid frame of each interesting shape plus the
	// canonical malformed inputs.
	seed := func(h frameHeader, payload []byte) {
		f.Add(buildFrame(h, payload))
	}
	seed(frameHeader{kind: frameData, enc: encF64s, seq: 1, ack: 0, epoch: 0, ctx: 1, tag: 2, source: 0}, f64Bytes([]float64{1, 2, 3}))
	seed(frameHeader{kind: frameData, enc: encBytes, seq: 2, source: 1}, []byte("seed"))
	seed(frameHeader{kind: frameData, enc: encBytes, seq: 2, source: 1, more: true}, []byte("piece"))
	seed(frameHeader{kind: frameData, enc: encI64s, seq: 3, source: 1}, i64Bytes([]int64{-7}))
	seed(frameHeader{kind: frameData, enc: encInt64, seq: 4, source: 1}, make([]byte, 8))
	seed(frameHeader{kind: frameData, enc: encNil, seq: 5, source: 1}, nil)
	seed(frameHeader{kind: frameData, enc: 7, seq: 6, source: 1}, nil) // no such encoding
	seed(frameHeader{kind: frameHeartbeat, seq: 10, ack: 9, source: 1}, nil)
	seed(frameHeader{kind: frameHello, ack: 3, source: 0}, nil)
	seed(frameHeader{kind: frameWelcome, ack: 4, source: 1}, nil)

	truncated := buildFrame(frameHeader{kind: frameData, enc: encBytes, seq: 1, source: 0}, []byte("cut off"))
	f.Add(truncated[:20])
	f.Add(truncated[:frameHeaderLen+2])

	badMagic := append([]byte(nil), truncated...)
	badMagic[0] = 'Z'
	f.Add(badMagic)

	badCRC := append([]byte(nil), truncated...)
	badCRC[len(badCRC)-1] ^= 0xA5
	f.Add(badCRC)

	oversized := append([]byte(nil), truncated...)
	oversized[48], oversized[49], oversized[50], oversized[51] = 0xFF, 0xFF, 0xFF, 0x7F
	f.Add(oversized)

	reserved := append([]byte(nil), truncated...)
	reserved[6] = 0xEE
	f.Add(reserved)

	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 2*frameHeaderLen))

	const maxBytes = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		var s frameScratch
		r := bytes.NewReader(data)
		for {
			h, payload, err := readFrame(r, maxBytes, &s)
			if err != nil {
				if err == io.EOF {
					return // clean end of stream
				}
				if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrBadFrame) &&
					!errors.Is(err, ErrFrameTooLarge) && !errors.Is(err, ErrChecksum) &&
					!errors.Is(err, ErrTruncated) {
					t.Fatalf("untyped decoder error: %v", err)
				}
				return
			}
			if len(payload) > maxBytes || cap(s.payload) > maxBytes {
				t.Fatalf("payload staging exceeded the frame bound: len %d cap %d", len(payload), cap(s.payload))
			}
			if h.enc > encFloat64 {
				t.Fatalf("accepted payload encoding %d outside the contract", h.enc)
			}
			if int(h.length) != len(payload) {
				t.Fatalf("length prefix %d != payload %d", h.length, len(payload))
			}
			// Decode/encode consistency: a frame the decoder accepts must
			// survive a round trip bit-for-bit.
			re := buildFrame(h, payload)
			var s2 frameScratch
			h2, p2, err := readFrame(bytes.NewReader(re), maxBytes, &s2)
			if err != nil {
				t.Fatalf("re-encoded frame rejected: %v", err)
			}
			if h2 != h || !bytes.Equal(p2, payload) {
				t.Fatalf("round trip mismatch: %+v vs %+v", h2, h)
			}
		}
	})
}
