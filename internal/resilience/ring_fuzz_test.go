package resilience

import (
	"bytes"
	"testing"
)

// FuzzDecodeEnvelope feeds arbitrary bytes to the envelope decoder, seeded
// with a buddy replica and a heal stream as the ring encodes them, and
// their truncations around the 28-byte header. Invariants: no panic; an
// input shorter than the header is refused; an accepted input's payload
// is the input after the header (no copy), and it re-encodes to the same
// bytes.
func FuzzDecodeEnvelope(f *testing.F) {
	replica := (&envelope{Step: 6}).seal(counterRecord(42))
	heal := (&envelope{Step: 16, SrcWorld: 2, To: 40}).seal(counterRecord(17))
	for _, seed := range [][]byte{replica, heal} {
		for _, n := range []int{len(seed), len(seed) - 1, envelopeHeader, envelopeHeader - 1, 0} {
			f.Add(seed[:n])
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		e, err := decodeEnvelope(b)
		if (err != nil) != (len(b) < envelopeHeader) {
			t.Fatalf("%d-byte input: err = %v", len(b), err)
		}
		if err != nil {
			return
		}
		if len(e.Payload) > 0 && &e.Payload[0] != &b[envelopeHeader] {
			t.Fatal("the payload is a copy of the input")
		}
		if re := append(e.appendHeader(nil), e.Payload...); !bytes.Equal(re, b) {
			t.Fatalf("accepted envelope re-encodes to %x, read %x", re, b)
		}
	})
}
