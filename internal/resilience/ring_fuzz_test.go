package resilience

import (
	"bytes"
	"testing"

	"walberla/internal/comm"
)

// FuzzDecodeEnvelope feeds arbitrary bytes to the envelope decoder, seeded
// with a buddy replica and a heal stream as the ring encodes them, and
// their truncations. Invariants: no panic; nothing allocated that the
// input does not back (the Redirect table is the one allocation, eight
// input bytes per entry); an accepted input re-encodes to the same bytes.
func FuzzDecodeEnvelope(f *testing.F) {
	var replica []byte
	var err error
	comm.Run(1, func(c *comm.Comm) { replica, err = encode(&counterWorld{c: c, n: 42}, 6) })
	if err != nil {
		f.Fatal(err)
	}
	payload, crc, _, _ := forwardingWorld{}.Reencode(17)
	heal := (&envelope{Step: 16, SrcWorld: 2, To: 40, CRC: crc, Redirect: []int{0, -1, 1},
		Meta: []byte("side band"), Payload: payload}).marshal()
	for _, seed := range [][]byte{replica, heal} {
		for _, n := range []int{len(seed), len(seed) - 1, 36, 31, 0} {
			f.Add(seed[:n])
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		e, err := decodeEnvelope(b)
		if err != nil {
			return
		}
		if 8*cap(e.Redirect) > len(b) {
			t.Fatalf("%d redirect entries from %d input bytes", cap(e.Redirect), len(b))
		}
		if re := e.marshal(); !bytes.Equal(re, b) {
			t.Fatalf("accepted envelope re-encodes to %x, read %x", re, b)
		}
	})
}
