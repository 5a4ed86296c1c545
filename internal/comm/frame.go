package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"
)

// Wire format of the socket transport (see docs/TRANSPORT.md).
//
// Every frame is a fixed 56-byte header followed by a length-prefixed
// payload. The header carries the message routing triple (context, source,
// tag), the per-directed-stream sequence number driving idempotent resend,
// a piggybacked cumulative acknowledgement, and the world epoch the frame
// was sent in (stale cross-epoch traffic is shed at delivery, the wire
// analogue of the recovery mailbox purge). The trailing CRC-32C covers the
// first 52 header bytes plus the payload, so a flipped bit anywhere in the
// frame is detected before anything is delivered.
//
//	offset  size  field
//	 0       4    magic "WFR1"
//	 4       1    kind  (data, heartbeat, hello, welcome)
//	 5       1    enc   (payload encoding)
//	 6       1    reserved, must be zero
//	 7       1    flags (data frames: frameMore)
//	 8       8    seq    per-directed-stream sequence (data), lastSent (heartbeat)
//	16       8    ack    cumulative ack of the reverse stream
//	24       8    epoch  world epoch at send time
//	32       8    ctx    communicator context id
//	40       4    tag
//	44       4    source world rank
//	48       4    payload length in bytes
//	52       4    CRC-32C (Castagnoli) over header[0:52] ++ payload

const (
	frameMagic     = 0x31524657 // "WFR1" little-endian
	frameHeaderLen = 56

	// defaultMaxFrameBytes bounds a data frame's payload. The sender
	// splits a larger payload into consecutive frames of this size (a
	// multiple of 8, so a piece of a []float64 or []int64 holds whole
	// values); the decoder rejects a longer length prefix before any
	// payload allocation. A frame this small crosses well within the
	// stall threshold even on a slow link, and the reader's liveness
	// clock advances per frame, so a large payload never looks like a
	// silent peer.
	defaultMaxFrameBytes = 1 << 20

	// frameMore flags a data frame whose message goes on in the stream's
	// next data frame; the reader joins the pieces and delivers once.
	frameMore = 1
)

// frameKind discriminates the frame types of the wire protocol.
type frameKind uint8

const (
	frameData      frameKind = 1 // one comm message
	frameHeartbeat frameKind = 2 // liveness + tail-gap probe, carries acks
	frameHello     frameKind = 3 // dialer's half of the connection handshake
	frameWelcome   frameKind = 4 // acceptor's half of the connection handshake
)

// payloadEnc identifies how a data frame's payload bytes map back to the
// message payload: one code per kind of the payload contract
// (classifyPayload).
type payloadEnc uint8

const (
	encNil     payloadEnc = 0 // nil payload (barriers)
	encF64s    payloadEnc = 1 // []float64, raw little-endian bits
	encBytes   payloadEnc = 2 // []byte
	encI64s    payloadEnc = 3 // []int64
	encInt64   payloadEnc = 4 // int64 scalar
	encInt     payloadEnc = 5 // int scalar (carried as 64-bit)
	encFloat64 payloadEnc = 6 // float64 scalar
)

// Typed decoder errors. The reader severs and redials the connection on
// any of them; the fuzz harness asserts malformed input can only produce
// these (never a panic, never an unbounded allocation).
var (
	// ErrBadMagic reports a frame not starting with the WFR1 magic — the
	// stream lost framing or the peer speaks another protocol.
	ErrBadMagic = errors.New("comm: frame header magic mismatch")
	// ErrBadFrame reports an unknown frame kind or payload encoding, or a
	// nonzero reserved field.
	ErrBadFrame = errors.New("comm: malformed frame header")
	// ErrFrameTooLarge reports a length prefix above the decoder's bound
	// (defaultMaxFrameBytes on the wire), rejected before any payload
	// allocation.
	ErrFrameTooLarge = errors.New("comm: frame exceeds maximum size")
	// ErrChecksum reports a frame whose CRC-32C does not cover its bytes.
	ErrChecksum = errors.New("comm: frame checksum mismatch")
	// ErrTruncated reports a stream ending mid-frame.
	ErrTruncated = errors.New("comm: truncated frame")
)

// castagnoli is the CRC-32C table shared by all encode/decode sites.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameHeader is the decoded header of one frame.
type frameHeader struct {
	kind   frameKind
	enc    payloadEnc
	seq    uint64
	ack    uint64
	epoch  uint64
	ctx    int64
	tag    int32
	source int32
	length uint32
	more   bool // frameMore: the payload goes on in the next data frame
}

// encodeFrameHeader serializes h into dst and stamps the CRC over the
// header and the payload bytes. Allocation-free: dst is the caller's
// persistent scratch.
func encodeFrameHeader(dst *[frameHeaderLen]byte, h frameHeader, payload []byte) {
	binary.LittleEndian.PutUint32(dst[0:4], frameMagic)
	dst[4] = byte(h.kind)
	dst[5] = byte(h.enc)
	dst[6], dst[7] = 0, 0
	if h.more {
		dst[7] = frameMore
	}
	binary.LittleEndian.PutUint64(dst[8:16], h.seq)
	binary.LittleEndian.PutUint64(dst[16:24], h.ack)
	binary.LittleEndian.PutUint64(dst[24:32], h.epoch)
	binary.LittleEndian.PutUint64(dst[32:40], uint64(h.ctx))
	binary.LittleEndian.PutUint32(dst[40:44], uint32(h.tag))
	binary.LittleEndian.PutUint32(dst[44:48], uint32(h.source))
	binary.LittleEndian.PutUint32(dst[48:52], uint32(len(payload)))
	crc := crc32.Checksum(dst[0:52], castagnoli)
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(dst[52:56], crc)
}

// decodeFrameHeader validates and parses a raw header. The payload CRC is
// checked separately once the payload bytes are in (checkFrameCRC), so
// hot-path readers can stream the payload into typed buffers.
func decodeFrameHeader(raw *[frameHeaderLen]byte, maxFrameBytes int) (frameHeader, error) {
	if binary.LittleEndian.Uint32(raw[0:4]) != frameMagic {
		return frameHeader{}, ErrBadMagic
	}
	h := frameHeader{
		kind:   frameKind(raw[4]),
		enc:    payloadEnc(raw[5]),
		seq:    binary.LittleEndian.Uint64(raw[8:16]),
		ack:    binary.LittleEndian.Uint64(raw[16:24]),
		epoch:  binary.LittleEndian.Uint64(raw[24:32]),
		ctx:    int64(binary.LittleEndian.Uint64(raw[32:40])),
		tag:    int32(binary.LittleEndian.Uint32(raw[40:44])),
		source: int32(binary.LittleEndian.Uint32(raw[44:48])),
		length: binary.LittleEndian.Uint32(raw[48:52]),
		more:   raw[7] == frameMore,
	}
	if raw[6] != 0 || raw[7]&^frameMore != 0 {
		return frameHeader{}, ErrBadFrame
	}
	if h.kind < frameData || h.kind > frameWelcome {
		return frameHeader{}, fmt.Errorf("%w: unknown kind %d", ErrBadFrame, h.kind)
	}
	if h.enc > encFloat64 {
		return frameHeader{}, fmt.Errorf("%w: unknown payload encoding %d", ErrBadFrame, h.enc)
	}
	if h.kind != frameData && h.length != 0 {
		return frameHeader{}, fmt.Errorf("%w: %v frame with payload", ErrBadFrame, h.kind)
	}
	if h.more && (h.kind != frameData || (h.enc != encF64s && h.enc != encBytes && h.enc != encI64s)) {
		return frameHeader{}, fmt.Errorf("%w: continued frame of kind %d, encoding %d", ErrBadFrame, h.kind, h.enc)
	}
	switch h.enc {
	case encF64s, encI64s:
		if h.length%8 != 0 {
			return frameHeader{}, fmt.Errorf("%w: %d payload bytes not a multiple of 8", ErrBadFrame, h.length)
		}
	case encInt64, encInt, encFloat64:
		if h.length != 8 {
			return frameHeader{}, fmt.Errorf("%w: scalar frame with %d payload bytes", ErrBadFrame, h.length)
		}
	case encNil:
		if h.length != 0 {
			return frameHeader{}, fmt.Errorf("%w: nil-payload frame with %d payload bytes", ErrBadFrame, h.length)
		}
	}
	if maxFrameBytes <= 0 {
		maxFrameBytes = defaultMaxFrameBytes
	}
	if int64(h.length) > int64(maxFrameBytes) {
		return frameHeader{}, fmt.Errorf("%w: %d bytes over the %d bound", ErrFrameTooLarge, h.length, maxFrameBytes)
	}
	return h, nil
}

// checkFrameCRC verifies the frame checksum given the raw header bytes
// and the payload as read off the wire.
func checkFrameCRC(raw *[frameHeaderLen]byte, payload []byte) error {
	want := binary.LittleEndian.Uint32(raw[52:56])
	crc := crc32.Checksum(raw[0:52], castagnoli)
	crc = crc32.Update(crc, castagnoli, payload)
	if crc != want {
		return ErrChecksum
	}
	return nil
}

// frameScratch is a reader's reusable decode state: the header buffer and
// a grow-once payload staging area for byte-oriented encodings.
type frameScratch struct {
	hdr     [frameHeaderLen]byte
	payload []byte
}

// grow returns a scratch payload slice of exactly n bytes, reusing the
// backing array once it is large enough.
func (s *frameScratch) grow(n int) []byte {
	if cap(s.payload) < n {
		s.payload = make([]byte, n)
	}
	return s.payload[:cap(s.payload)][:n]
}

// readFrame reads and validates one whole frame from r, staging the
// payload into the scratch buffer. The returned payload slice aliases the
// scratch and is only valid until the next readFrame call. A stream
// ending mid-frame returns ErrTruncated (a clean EOF before any header
// byte returns io.EOF); any malformed content returns one of the typed
// decoder errors above. The payload allocation is bounded by
// maxFrameBytes regardless of the length prefix.
func readFrame(r io.Reader, maxFrameBytes int, s *frameScratch) (frameHeader, []byte, error) {
	if _, err := io.ReadFull(r, s.hdr[:]); err != nil {
		if err == io.EOF {
			return frameHeader{}, nil, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return frameHeader{}, nil, fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		return frameHeader{}, nil, err
	}
	h, err := decodeFrameHeader(&s.hdr, maxFrameBytes)
	if err != nil {
		return frameHeader{}, nil, err
	}
	payload := s.grow(int(h.length))
	if _, err := io.ReadFull(r, payload); err != nil {
		return frameHeader{}, nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if err := checkFrameCRC(&s.hdr, payload); err != nil {
		return frameHeader{}, nil, err
	}
	return h, payload, nil
}

// f64Bytes views a []float64 as its raw little-endian byte representation
// without copying — the zero-copy half of "writing directly from the
// persistent aggregated send buffers". Safe on all supported platforms
// (little-endian; float64 and its bit pattern share a layout).
func f64Bytes(f []float64) []byte {
	if len(f) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), 8*len(f))
}

// i64Bytes views a []int64 as raw bytes without copying.
func i64Bytes(v []int64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v))
}

// encodeScalar stamps a scalar payload into an 8-byte scratch.
func encodeScalar(dst *[8]byte, enc payloadEnc, data any) {
	switch enc {
	case encInt64:
		binary.LittleEndian.PutUint64(dst[:], uint64(data.(int64)))
	case encInt:
		binary.LittleEndian.PutUint64(dst[:], uint64(int64(data.(int))))
	case encFloat64:
		binary.LittleEndian.PutUint64(dst[:], math.Float64bits(data.(float64)))
	default:
		panic("comm: encodeScalar on non-scalar encoding")
	}
}

// decodeScalar rebuilds the scalar payload of a frame.
func decodeScalar(enc payloadEnc, b []byte) any {
	u := binary.LittleEndian.Uint64(b)
	switch enc {
	case encInt64:
		return int64(u)
	case encInt:
		return int(int64(u))
	case encFloat64:
		return math.Float64frombits(u)
	default:
		panic("comm: decodeScalar on non-scalar encoding")
	}
}

// ErrPayloadType reports a payload outside the contract of classifyPayload.
var ErrPayloadType = errors.New("comm: payload type outside the wire contract")

// PayloadError is the error of a send whose payload's type is outside
// the contract of classifyPayload, on both transports. Nothing is sent.
type PayloadError struct {
	Type string // the payload's Go type, as %T prints it
	Err  error  // ErrPayloadType
}

func (e *PayloadError) Error() string { return fmt.Sprintf("%v: %s", e.Err, e.Type) }

func (e *PayloadError) Unwrap() error { return e.Err }

// classifyPayload is the payload contract of both transports: nil,
// []byte, []float64, []int64, int64, int and float64. It returns the wire
// encoding and a slice payload's bytes (a view, not a copy; nil for a
// scalar, which its frame carries in 8 bytes), or a *PayloadError naming
// any other type.
func classifyPayload(msg *message) (payloadEnc, []byte, error) {
	if msg.f64 != nil {
		return encF64s, f64Bytes(msg.f64), nil
	}
	switch d := msg.data.(type) {
	case nil:
		return encNil, nil, nil
	case []float64:
		return encF64s, f64Bytes(d), nil
	case []byte:
		return encBytes, d, nil
	case []int64:
		return encI64s, i64Bytes(d), nil
	case int64:
		return encInt64, nil, nil
	case int:
		return encInt, nil, nil
	case float64:
		return encFloat64, nil, nil
	}
	return 0, nil, &PayloadError{Type: fmt.Sprintf("%T", msg.data), Err: ErrPayloadType}
}
