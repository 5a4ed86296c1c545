package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strings"
	"testing"
)

// buildFrame encodes a complete wire frame (header + payload) for tests.
func buildFrame(h frameHeader, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	encodeFrameHeader(&hdr, h, payload)
	return append(append([]byte(nil), hdr[:]...), payload...)
}

func TestFrameHeaderRoundTrip(t *testing.T) {
	cases := []struct {
		name    string
		h       frameHeader
		payload []byte
	}{
		{"data f64s", frameHeader{kind: frameData, enc: encF64s, seq: 7, ack: 3, epoch: 2, ctx: -12345, tag: 9, source: 4}, f64Bytes([]float64{1.5, -2.25, math.Inf(1)})},
		{"data bytes", frameHeader{kind: frameData, enc: encBytes, seq: 1, source: 1}, []byte("hello, wire")},
		{"data bytes continued", frameHeader{kind: frameData, enc: encBytes, seq: 5, source: 1, more: true}, []byte("piece")},
		{"data i64s", frameHeader{kind: frameData, enc: encI64s, seq: 2, source: 0}, i64Bytes([]int64{-1, 1 << 62})},
		{"data int64", frameHeader{kind: frameData, enc: encInt64, seq: 3, source: 2}, make([]byte, 8)},
		{"data nil", frameHeader{kind: frameData, enc: encNil, seq: 4, source: 2}, nil},
		{"heartbeat", frameHeader{kind: frameHeartbeat, seq: 99, ack: 98, epoch: 1, source: 3}, nil},
		{"hello", frameHeader{kind: frameHello, ack: 41, source: 0}, nil},
		{"welcome", frameHeader{kind: frameWelcome, ack: 17, source: 6}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := buildFrame(tc.h, tc.payload)
			var s frameScratch
			got, payload, err := readFrame(bytes.NewReader(raw), 0, &s)
			if err != nil {
				t.Fatalf("readFrame: %v", err)
			}
			want := tc.h
			want.length = uint32(len(tc.payload))
			if got != want {
				t.Errorf("header round trip: got %+v want %+v", got, want)
			}
			if !bytes.Equal(payload, tc.payload) {
				t.Errorf("payload round trip: got %x want %x", payload, tc.payload)
			}
		})
	}
}

func TestFrameCRCDetectsFlips(t *testing.T) {
	h := frameHeader{kind: frameData, enc: encF64s, seq: 11, ack: 5, epoch: 1, ctx: 3, tag: 2, source: 1}
	payload := f64Bytes([]float64{3.14, 2.71, 1.41})
	raw := buildFrame(h, payload)
	// Flip one bit at every position that the CRC must cover: the first 52
	// header bytes and all payload bytes. (Bytes 52..55 are the CRC itself;
	// flipping those must also fail, checked separately below.)
	for i := 0; i < len(raw); i++ {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x10
		var s frameScratch
		_, _, err := readFrame(bytes.NewReader(mut), 0, &s)
		if err == nil {
			t.Fatalf("bit flip at byte %d went undetected", i)
		}
	}
}

func TestFrameTruncation(t *testing.T) {
	raw := buildFrame(frameHeader{kind: frameData, enc: encBytes, seq: 1, source: 0}, []byte("payload-bytes"))
	for cut := 1; cut < len(raw); cut++ {
		var s frameScratch
		_, _, err := readFrame(bytes.NewReader(raw[:cut]), 0, &s)
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: got %v, want ErrTruncated", cut, err)
		}
	}
	// A clean EOF before any byte is io.EOF, not truncation.
	var s frameScratch
	if _, _, err := readFrame(bytes.NewReader(nil), 0, &s); err != io.EOF {
		t.Errorf("empty stream: got %v, want io.EOF", err)
	}
}

func TestFrameDecodeRejections(t *testing.T) {
	valid := func() []byte {
		return buildFrame(frameHeader{kind: frameData, enc: encBytes, seq: 1, source: 0}, []byte{1, 2, 3})
	}
	cases := []struct {
		name   string
		mut    func(raw []byte)
		target error
	}{
		{"bad magic", func(raw []byte) { raw[0] = 'X' }, ErrBadMagic},
		{"reserved nonzero", func(raw []byte) { raw[6] = 1; stampCRC(raw) }, ErrBadFrame},
		{"unknown flag", func(raw []byte) { raw[7] = 2; stampCRC(raw) }, ErrBadFrame},
		{"kind zero", func(raw []byte) { raw[4] = 0; stampCRC(raw) }, ErrBadFrame},
		{"kind unknown", func(raw []byte) { raw[4] = 200; stampCRC(raw) }, ErrBadFrame},
		{"enc unknown", func(raw []byte) { raw[5] = 99; stampCRC(raw) }, ErrBadFrame},
		{"heartbeat with payload", func(raw []byte) { raw[4] = byte(frameHeartbeat); stampCRC(raw) }, ErrBadFrame},
		// 7 was the retired opaque encoding: now unknown, with or without payload.
		{"opaque with payload", func(raw []byte) { raw[5] = 7; stampCRC(raw) }, ErrBadFrame},
		{"f64 odd length", func(raw []byte) { raw[5] = byte(encF64s); stampCRC(raw) }, ErrBadFrame},
		{"scalar wrong length", func(raw []byte) { raw[5] = byte(encInt64); stampCRC(raw) }, ErrBadFrame},
		{"nil with payload", func(raw []byte) { raw[5] = byte(encNil); stampCRC(raw) }, ErrBadFrame},
		{"oversized length", func(raw []byte) { raw[48] = 0xFF; raw[49] = 0xFF; raw[50] = 0xFF; stampCRC(raw) }, ErrFrameTooLarge},
		{"bad crc", func(raw []byte) { raw[len(raw)-1] ^= 0xFF }, ErrChecksum},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := valid()
			tc.mut(raw)
			var s frameScratch
			_, _, err := readFrame(bytes.NewReader(raw), 1<<20, &s)
			if !errors.Is(err, tc.target) {
				t.Errorf("got %v, want %v", err, tc.target)
			}
		})
	}
	// Only a slice payload can be split: frameMore on a scalar is refused.
	raw := buildFrame(frameHeader{kind: frameData, enc: encInt64, seq: 1, more: true}, make([]byte, 8))
	var s frameScratch
	if _, _, err := readFrame(bytes.NewReader(raw), 1<<20, &s); !errors.Is(err, ErrBadFrame) {
		t.Errorf("continued scalar: got %v, want ErrBadFrame", err)
	}
}

// stampCRC recomputes a mutated test frame's checksum in place so the
// header validation under test — not the CRC — is what trips.
func stampCRC(raw []byte) {
	crc := crc32.Checksum(raw[:52], castagnoli)
	crc = crc32.Update(crc, castagnoli, raw[frameHeaderLen:])
	binary.LittleEndian.PutUint32(raw[52:56], crc)
}

func TestFrameLengthBound(t *testing.T) {
	// A length prefix just over the bound is rejected before allocation.
	raw := buildFrame(frameHeader{kind: frameData, enc: encBytes, seq: 1, source: 0}, make([]byte, 64))
	var s frameScratch
	if _, _, err := readFrame(bytes.NewReader(raw), 63, &s); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("got %v, want ErrFrameTooLarge", err)
	}
	if _, _, err := readFrame(bytes.NewReader(raw), 64, &s); err != nil {
		t.Errorf("at the bound: %v", err)
	}
}

func TestScalarRoundTrip(t *testing.T) {
	var b [8]byte
	encodeScalar(&b, encInt64, int64(-42))
	if v := decodeScalar(encInt64, b[:]); v != int64(-42) {
		t.Errorf("int64: %v", v)
	}
	encodeScalar(&b, encInt, int(1<<40))
	if v := decodeScalar(encInt, b[:]); v != int(1<<40) {
		t.Errorf("int: %v", v)
	}
	encodeScalar(&b, encFloat64, math.Pi)
	if v := decodeScalar(encFloat64, b[:]); v != math.Pi {
		t.Errorf("float64: %v", v)
	}
}

func TestClassifyPayload(t *testing.T) {
	cases := []struct {
		msg  message
		want payloadEnc
		size int64
	}{
		{message{f64: []float64{1}}, encF64s, 8},
		{message{data: []float64{1, 2}}, encF64s, 16},
		{message{}, encNil, 0},
		{message{data: []byte{1}}, encBytes, 1},
		{message{data: []int64{1}}, encI64s, 8},
		{message{data: int64(1)}, encInt64, 8},
		{message{data: 1}, encInt, 8},
		{message{data: 1.0}, encFloat64, 8},
	}
	for i, tc := range cases {
		got, body, err := classifyPayload(&tc.msg)
		size := int64(len(body))
		if got >= encInt64 {
			size = 8 // a scalar, carried in its frame's word
		}
		if got != tc.want || size != tc.size || err != nil {
			t.Errorf("case %d: got %v, %d bytes, %v; want %v, %d bytes", i, got, size, err, tc.want, tc.size)
		}
	}
	for _, data := range []any{struct{ X int }{1}, map[string]int{"a": 1}, uint64(1)} {
		var pe *PayloadError
		if _, _, err := classifyPayload(&message{data: data}); !errors.As(err, &pe) || !errors.Is(err, ErrPayloadType) || pe.Type != fmt.Sprintf("%T", data) {
			t.Errorf("%T: got %v, want a *PayloadError naming the type", data, err)
		}
	}
}

func TestFrameScratchReuse(t *testing.T) {
	var s frameScratch
	a := s.grow(100)
	if len(a) != 100 {
		t.Fatalf("grow(100) len = %d", len(a))
	}
	b := s.grow(50)
	if len(b) != 50 {
		t.Fatalf("grow(50) len = %d", len(b))
	}
	if &a[0] != &b[0] {
		t.Error("shrinking grow reallocated")
	}
	c := s.grow(200)
	if len(c) != 200 {
		t.Fatalf("grow(200) len = %d", len(c))
	}
}

func TestF64BytesRoundTrip(t *testing.T) {
	src := []float64{0, -0.5, math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN()}
	b := f64Bytes(src)
	if len(b) != 8*len(src) {
		t.Fatalf("f64Bytes len = %d", len(b))
	}
	// The views are the little-endian wire encoding.
	for i := range src {
		if got := binary.LittleEndian.Uint64(b[8*i:]); got != math.Float64bits(src[i]) {
			t.Errorf("f64[%d]: %x != %x", i, got, math.Float64bits(src[i]))
		}
	}
	iv := []int64{-9, 0, 1 << 60}
	ib := i64Bytes(iv)
	for i := range iv {
		if got := int64(binary.LittleEndian.Uint64(ib[8*i:])); got != iv[i] {
			t.Errorf("i64[%d]: %d != %d", i, got, iv[i])
		}
	}
	if f64Bytes(nil) != nil || i64Bytes(nil) != nil {
		t.Error("empty slices must view as nil")
	}
}

func TestReadFrameErrorStrings(t *testing.T) {
	// The typed errors must keep their comm: prefix so transport logs are
	// attributable.
	for _, err := range []error{ErrBadMagic, ErrBadFrame, ErrFrameTooLarge, ErrChecksum, ErrTruncated} {
		if !strings.HasPrefix(err.Error(), "comm: ") {
			t.Errorf("error %q lacks comm: prefix", err)
		}
	}
}
