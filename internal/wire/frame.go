// Control-plane message framing. Every PS↔worker message travels as
// one self-delimiting frame:
//
//	u16  magic  (0xB52D, little-endian)
//	u8   protocol version (ProtocolVersion)
//	u8   message type (transport-defined)
//	u32  payload length in bytes
//	…    payload
//
// Because each frame declares its own length, a receiver that is
// interrupted mid-frame (a read deadline firing while a slow worker's
// report is in flight) knows exactly how many bytes remain and can
// resume or discard the frame later instead of abandoning the
// connection — the property the gob Envelope stream of protocol v1
// lacked, which made every eviction permanent.
//
// The frame layer is transport-agnostic: message types are just bytes
// here, and payload encodings are owned by the callers (the transport
// packages encode their message structs with the primitive helpers
// below, in the same canonical little-endian style as the gradient
// frame codec in this package).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"byzshield/internal/linalg"
)

// ErrVersionMismatch marks a frame header carrying a protocol version
// other than ProtocolVersion. It surfaces wrapped (errors.Is), so a
// server that fails to parse a peer's first frame can tell an old-
// version peer — which deserves a typed Reject naming the version —
// from a corrupt stream.
var ErrVersionMismatch = errors.New("wire: protocol version mismatch")

const (
	// FrameMagic marks the start of every control frame.
	FrameMagic = 0xB52D
	// ProtocolVersion is the current control-plane protocol version.
	// Hello/Welcome carry it explicitly for negotiation; every frame
	// header repeats it so a version skew fails fast on any message.
	// v12 dropped the detection policy from the Spec payload (two u32
	// and three f64 fields, 32 bytes): the policy is fixed in
	// internal/detect and the Spec names only the detector.
	// v11 made the Spec the one run description: its payload carries
	// the data distribution (name and knob), so workers draw the
	// non-IID stream the engine draws, and the vote quorum.
	// v10 deleted the sharded aggregation plane: a GradientReport
	// carries no shard index (one whole-vector frame per worker per
	// round) and the Welcome no shard count.
	// v9 made every uplink frame self-contained: the XOR-delta uplink
	// mode (2) is unassigned, the Hello carries no tier mask — the PS
	// names the tier in Welcome.Uplink — and the Welcome's unread
	// full-broadcast cadence is gone.
	// v8 stopped shipping each round's file→samples table, which every
	// process derives from the Spec's seed (data.FileStream): the
	// RoundStart's file section, the round-prep message (type 7) and the
	// Welcome's pipeline flag are gone, and a RoundStart is a header and
	// a params frame.
	// v7 added the negotiated precision tier: the Hello advertises a
	// supported-precisions bitmask, the Welcome pins the connection's
	// Precision (f64 stays the default), and the float32 instantiation
	// of every value codec (gradient frames, params full/delta, all
	// four uplink tiers) carries the reduced-precision connections.
	// Pre-v7 peers are rejected at the first frame with the typed
	// version Reject.
	// v6 made the uplink codec a negotiated tier: the Hello advertises
	// a supported-tiers bitmask, the Welcome's uplink-delta flag byte
	// became the negotiated UplinkTier, and two lossy quantized frame
	// modes (sign, int8 — quant.go) joined raw and XOR-delta.
	// v5 added the sharded aggregation plane: per-shard gradient
	// report frames (GradientReport.Shard over ShardRange coordinate
	// ranges) and the Welcome's shard count; v10 removed both.
	// v4 extended the Spec payload with the detector configuration and
	// added the typed Reject frame (blacklisted-rejoin refusal); v3 added
	// the compressed uplink gradient codec (uplink.go) and the Welcome's
	// uplink-delta flag. Older peers are rejected at the first frame
	// (and at Hello/Welcome negotiation) with a typed version Reject.
	ProtocolVersion = 12
	// FrameHeaderSize is the fixed byte size of the frame header.
	FrameHeaderSize = 8
	// MaxFramePayload bounds the declared payload length a receiver will
	// accept, so a hostile header cannot trigger an unbounded allocation.
	MaxFramePayload = 1 << 28 // 256 MiB
)

// AppendFrame appends a complete frame (header + payload) to dst.
func AppendFrame(dst []byte, typ byte, payload []byte) ([]byte, error) {
	if len(payload) > MaxFramePayload {
		return nil, fmt.Errorf("wire: frame payload %d bytes exceeds limit %d", len(payload), MaxFramePayload)
	}
	dst = binary.LittleEndian.AppendUint16(dst, FrameMagic)
	dst = append(dst, ProtocolVersion, typ)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...), nil
}

// BeginFrame appends a frame header with a zero payload length to dst
// and returns the offset EndFrame patches. Together they build a frame
// whose payload is appended in place after the header, instead of
// encoding the payload in a separate buffer and copying it through
// AppendFrame — the difference is one full-payload memmove per send.
func BeginFrame(dst []byte, typ byte) ([]byte, int) {
	dst = binary.LittleEndian.AppendUint16(dst, FrameMagic)
	dst = append(dst, ProtocolVersion, typ)
	at := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	return dst, at
}

// EndFrame patches the payload length of the frame begun at `at` (the
// offset BeginFrame returned): the payload is everything appended to
// dst since. The buffer is returned unchanged on error, so callers can
// keep reusing it.
func EndFrame(dst []byte, at int) ([]byte, error) { return EndFrameWith(dst, at, 0) }

// EndFrameWith is EndFrame for a frame whose payload has `extra` more
// bytes than were appended to dst: bytes the sender already holds
// encoded and puts into the same vectored write rather than copying
// them behind the header.
func EndFrameWith(dst []byte, at, extra int) ([]byte, error) {
	n := len(dst) - at - 4 + extra
	if n > MaxFramePayload {
		return dst, fmt.Errorf("wire: frame payload %d bytes exceeds limit %d", n, MaxFramePayload)
	}
	binary.LittleEndian.PutUint32(dst[at:], uint32(n))
	return dst, nil
}

// ParseFrameHeader validates a frame header and returns the message
// type and declared payload length.
func ParseFrameHeader(hdr []byte) (typ byte, length int, err error) {
	if len(hdr) < FrameHeaderSize {
		return 0, 0, fmt.Errorf("wire: frame header truncated at %d bytes", len(hdr))
	}
	if m := binary.LittleEndian.Uint16(hdr); m != FrameMagic {
		return 0, 0, fmt.Errorf("wire: bad frame magic %#04x", m)
	}
	if v := hdr[2]; v != ProtocolVersion {
		return 0, 0, fmt.Errorf("wire: protocol version %d, want %d: %w", v, ProtocolVersion, ErrVersionMismatch)
	}
	length = int(binary.LittleEndian.Uint32(hdr[4:]))
	if length > MaxFramePayload {
		return 0, 0, fmt.Errorf("wire: frame declares %d payload bytes, limit %d", length, MaxFramePayload)
	}
	return hdr[3], length, nil
}

// ReadFrame reads one complete frame from r. The payload is read into
// buf when it fits (growing it otherwise); the returned slice aliases
// the returned buffer, which callers reuse across calls.
func ReadFrame(r io.Reader, buf []byte) (typ byte, payload, newBuf []byte, err error) {
	var hdr [FrameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, buf, err
	}
	typ, n, err := ParseFrameHeader(hdr[:])
	if err != nil {
		return 0, nil, buf, err
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, buf, fmt.Errorf("wire: frame body: %w", err)
	}
	return typ, buf, buf, nil
}

// --- Primitive payload helpers -------------------------------------
//
// Payload encodings across the protocol use these canonical
// little-endian primitives: fixed-width integers, IEEE-754 bit-pattern
// floats, and length-prefixed strings/slices. A Dec carries a sticky
// error so message decoders read fields linearly and check once.

// AppendU8 appends one byte.
func AppendU8(dst []byte, v uint8) []byte { return append(dst, v) }

// AppendU32 appends v little-endian.
func AppendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }

// AppendU64 appends v little-endian.
func AppendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

// AppendI64 appends v as its two's-complement u64 bit pattern.
func AppendI64(dst []byte, v int64) []byte { return AppendU64(dst, uint64(v)) }

// AppendF64 appends v's IEEE-754 bit pattern (bit-exact round-trip).
func AppendF64(dst []byte, v float64) []byte { return AppendU64(dst, math.Float64bits(v)) }

// AppendFloats appends every value's bit pattern at T's width,
// little-endian. Parameter broadcasts and gradient reports move whole
// vectors through this path every round, r copies of each file, so it
// has to cost what a copy costs: on a little-endian host the slice's
// memory already is the wire image and one append moves it; elsewhere
// appendFloatsPortable swaps per element.
func AppendFloats[T linalg.Float](dst []byte, src []T) []byte {
	if hostLittleEndian {
		return append(dst, linalg.Bytes(src)...)
	}
	return appendFloatsPortable(dst, src)
}

// DecodeFloats fills dst from the first sizeof(T)*len(dst) bytes of
// src, which the caller must already have bounds-checked against the
// frame header. It copies out of src — a receive buffer carries no
// alignment guarantee, so the bytes are never reinterpreted in place.
func DecodeFloats[T linalg.Float](dst []T, src []byte) {
	if hostLittleEndian {
		b := linalg.Bytes(dst)
		copy(b, src[:len(b)])
		return
	}
	decodeFloatsPortable(dst, src)
}

// appendFloatsPortable is AppendFloats by explicit little-endian
// stores: the body big-endian hosts run, and the reference the tests
// hold the copying body to.
func appendFloatsPortable[T linalg.Float](dst []byte, src []T) []byte {
	w := linalg.Width[T]()
	off := len(dst)
	dst = slices.Grow(dst, w*len(src))[:off+w*len(src)]
	buf := dst[off:]
	for i, v := range src {
		putBits[T](buf[i*w:], linalg.Bits(v))
	}
	return dst
}

// decodeFloatsPortable is DecodeFloats by explicit little-endian loads.
func decodeFloatsPortable[T linalg.Float](dst []T, src []byte) {
	w := linalg.Width[T]()
	src = src[: w*len(dst) : w*len(dst)]
	for i := range dst {
		dst[i] = linalg.FromBits[T](getBits[T](src[i*w:]))
	}
}

// putBits stores T's bit pattern x little-endian at the front of b
// (sizeof(T) bytes). Like linalg.Bits, the width test is a constant in
// each instantiation. putBits and getBits move raw patterns rather than
// T values on purpose: folding Bits/FromBits into them pushes them past
// the inliner's budget, and they would become a call per element in the
// portable bulk loops above.
func putBits[T linalg.Float](b []byte, x uint64) {
	if linalg.Width[T]() == 4 {
		binary.LittleEndian.PutUint32(b, uint32(x))
	} else {
		binary.LittleEndian.PutUint64(b, x)
	}
}

// getBits loads a T bit pattern (sizeof(T) little-endian bytes) from
// the front of b.
func getBits[T linalg.Float](b []byte) uint64 {
	if linalg.Width[T]() == 4 {
		return uint64(binary.LittleEndian.Uint32(b))
	}
	return binary.LittleEndian.Uint64(b)
}

// appendFloat appends one value's bit pattern at T's width.
func appendFloat[T linalg.Float](dst []byte, v T) []byte {
	if linalg.Width[T]() == 4 {
		return AppendU32(dst, uint32(linalg.Bits(v)))
	}
	return AppendU64(dst, linalg.Bits(v))
}

// AppendString appends a u32 length prefix followed by the raw bytes.
func AppendString(dst []byte, s string) []byte {
	dst = AppendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

// AppendInts appends a u32 count followed by each value as u32.
// Values must fit in u32 and be non-negative.
func AppendInts(dst []byte, vs []int) ([]byte, error) {
	dst = AppendU32(dst, uint32(len(vs)))
	for _, v := range vs {
		if v < 0 || int64(v) > math.MaxUint32 {
			return nil, fmt.Errorf("wire: int %d outside u32 range", v)
		}
		dst = AppendU32(dst, uint32(v))
	}
	return dst, nil
}

// Dec decodes primitive fields from a payload with a sticky error: the
// first failed read poisons the decoder, later reads return zero
// values, and Err reports the first failure (plus trailing garbage if
// the payload was not fully consumed when Done is used).
type Dec struct {
	src []byte
	off int
	err error
}

// NewDec returns a decoder over src.
func NewDec(src []byte) *Dec { return &Dec{src: src} }

// fail records the first error.
func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

// take returns the next n bytes, or nil after poisoning the decoder.
func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.src)-d.off < n {
		d.fail("payload truncated: need %d bytes at offset %d of %d", n, d.off, len(d.src))
		return nil
	}
	b := d.src[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a little-endian u32.
func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian u64.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a two's-complement i64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// F64 reads an IEEE-754 bit pattern.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Int reads a u32 as int.
func (d *Dec) Int() int { return int(d.U32()) }

// String reads a u32-length-prefixed string.
func (d *Dec) String() string {
	n := int(d.U32())
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Ints reads a u32-count-prefixed []int (nil for count 0).
func (d *Dec) Ints() []int {
	n := int(d.U32())
	if d.err != nil || n == 0 {
		return nil
	}
	// The count is validated against the remaining payload before
	// allocating, so a hostile count cannot trigger an oversized make.
	if len(d.src)-d.off < n*4 {
		d.fail("payload declares %d ints with %d bytes left", n, len(d.src)-d.off)
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.U32())
	}
	return out
}

// Rest returns every remaining byte (possibly empty).
func (d *Dec) Rest() []byte {
	if d.err != nil {
		return nil
	}
	b := d.src[d.off:]
	d.off = len(d.src)
	return b
}

// Skip advances n bytes without decoding them.
func (d *Dec) Skip(n int) { d.take(n) }

// Offset reports how many bytes have been consumed.
func (d *Dec) Offset() int { return d.off }

// Err returns the first decode failure, or nil.
func (d *Dec) Err() error { return d.err }

// Done returns the first decode failure, or an error if the payload
// has trailing bytes — message payloads must be consumed exactly.
func (d *Dec) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.src) {
		return fmt.Errorf("wire: payload has %d trailing bytes", len(d.src)-d.off)
	}
	return nil
}
