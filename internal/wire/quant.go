// Quantized uplink gradient frames (protocol v6). Consecutive gradient
// reports decorrelate, so no lossless scheme saves much on the dominant
// worker→PS direction; the two lossy tiers in this file cut it by
// construction instead:
//
//   - sign: one bit per coordinate plus one scale per row — the
//     1-bit SGD shape. The scale is the row's mean absolute value, so
//     the dequantized row ±scale preserves the row's L1 mass.
//   - int8: one byte per coordinate plus per-row (min, scale) — linear
//     quantization onto the 256-point grid [min, min+255·scale] with
//     scale = (max−min)/255.
//
// Like every uplink frame, a quantized frame is self-contained (see
// uplink.go).
//
// Determinism is the load-bearing property, not accuracy: the PS votes
// gradient replicas by bit-equality, so every honest replica of a file
// must dequantize to the identical bit pattern. Encode→decode and the
// in-place helpers (SignQuantizeInPlace, Int8QuantizeInPlace) perform
// the identical sequence of float operations, so the in-process engine
// pinned to a tier reproduces the wire path bit-for-bit — including the
// vote and everything downstream of it. A row is one file's whole
// gradient, as a worker's report frames it, and the engine quantizes
// the same whole rows.
//
// Frame layouts, little-endian (scale fields are T bit patterns,
// sizeof(T) bytes each, and all quantization arithmetic runs at T's
// width):
//
//	u8  mode (3 = sign, 4 = int8)
//	u32 worker, u32 n, u32 d, n × u32 file id
//	sign: n × row scale, then n × ⌈d/8⌉ sign bytes (bit j of byte
//	      j/8, LSB first; set = non-negative)
//	int8: n × (row min, row scale), then n × d quantized bytes
//
// A sign frame is canonical: scales must carry a clear sign bit and no
// NaN payload (the encoder refuses NaN scales), padding bits in the
// last sign byte must be zero, and a zero-dimension row's scale must be
// +0 — so an accepted frame re-encodes to exactly the consumed bytes
// from its decoded values (scale = |value|, bit = !signbit). Int8
// frames are validated structurally but not forced byte-canonical:
// distinct (min, scale, q) triples can dequantize to the same float
// row, and aggregation only needs the dequantization to be
// deterministic, which it is.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"byzshield/internal/linalg"
)

// UplinkTier selects the uplink gradient codec a connection (or the
// in-process engine) runs. The zero value is the lossless raw tier.
type UplinkTier uint8

const (
	// TierRaw ships self-contained raw gradient frames. The default.
	TierRaw UplinkTier = iota
	// TierSign is the 1-bit tier: sign bits plus a per-row scale.
	TierSign
	// TierInt8 is the linear-quantized tier: one byte per coordinate
	// plus per-row (min, scale).
	TierInt8
)

// Lossy reports whether the tier discards information (sign or int8).
func (t UplinkTier) Lossy() bool { return t == TierSign || t == TierInt8 }

// Valid reports whether t names a defined tier.
func (t UplinkTier) Valid() bool { return t <= TierInt8 }

// mode returns the frame mode the tier emits and accepts (-1, which no
// mode byte can equal, for an undefined tier).
func (t UplinkTier) mode() int {
	switch t {
	case TierRaw:
		return UplinkRaw
	case TierSign:
		return UplinkSign
	case TierInt8:
		return UplinkInt8
	default:
		return -1
	}
}

// String returns the flag spelling of the tier.
func (t UplinkTier) String() string {
	switch t {
	case TierRaw:
		return "raw"
	case TierSign:
		return "sign"
	case TierInt8:
		return "int8"
	default:
		return fmt.Sprintf("tier(%d)", uint8(t))
	}
}

// ParseUplinkTier parses the flag spelling of a tier.
func ParseUplinkTier(s string) (UplinkTier, error) {
	for t := TierRaw; t.Valid(); t++ {
		if s == t.String() {
			return t, nil
		}
	}
	return 0, fmt.Errorf("wire: unknown uplink tier %q (want raw, sign, or int8)", s)
}

// quantHeader is the mode byte plus worker, n, and d.
const quantHeader = 13

// signBytesPerRow returns the packed sign-bit bytes of one d-wide row.
func signBytesPerRow(d int) int { return (d + 7) / 8 }

// UplinkSignSizeOf returns the encoded size of a sign uplink frame with
// n files of dimension d: the sign bits are width-independent, only the
// row scale follows sizeof(T).
func UplinkSignSizeOf[T linalg.Float](n, d int) int {
	return quantHeader + n*4 + n*linalg.Width[T]() + n*signBytesPerRow(d)
}

// UplinkInt8SizeOf returns the encoded size of an int8 uplink frame
// with n files of dimension d (per-row min and scale at T's width).
func UplinkInt8SizeOf[T linalg.Float](n, d int) int {
	return quantHeader + n*4 + n*2*linalg.Width[T]() + n*d
}

// signBit reports whether v's sign bit is set (−0 and negative NaNs
// included), at T's own width.
func signBit[T linalg.Float](v T) bool {
	return linalg.Bits(v)>>(8*linalg.Width[T]()-1) != 0
}

// signScale returns the sign tier's row scale: the mean absolute
// value, accumulated in T (0 for an empty row). The absolute value is
// taken by clearing the sign bit at T's own width — math.Abs without a
// round trip through float64, exact for −0 and NaN payloads.
// SignQuantizeInPlaceOf must perform the identical operations.
func signScale[T linalg.Float](g []T) T {
	if len(g) == 0 {
		return 0
	}
	magnitude := ^(uint64(1) << (8*linalg.Width[T]() - 1))
	var sum T
	for _, v := range g {
		sum += linalg.FromBits[T](linalg.Bits(v) & magnitude)
	}
	return sum / T(len(g))
}

// int8Params returns the int8 tier's row (min, scale): the row's value
// range mapped onto 255 steps (both 0 for an empty row). A row
// containing NaN propagates it into min/max exactly as the comparison
// loop below does, which Int8QuantizeInPlaceOf mirrors.
func int8Params[T linalg.Float](g []T) (min, scale T) {
	if len(g) == 0 {
		return 0, 0
	}
	min, max := g[0], g[0]
	for _, v := range g[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, (max - min) / 255
}

// int8Quantize maps one value onto the row's grid. The offset and step
// are computed in T and only the final rounding widens (math.Round is
// float64-only; widening a float32 is exact). NaN and -Inf arguments
// clamp to 0, +Inf to 255, so the conversion to byte is always defined
// behavior.
func int8Quantize[T linalg.Float](v, min, scale T) uint8 {
	if scale == 0 {
		return 0
	}
	t := math.Round(float64((v - min) / scale))
	if !(t > 0) {
		return 0
	}
	if t > 255 {
		return 255
	}
	return uint8(t)
}

// SignQuantizeInPlaceOf replaces g with the values a sign-tier
// encode→decode round trip would deliver, using the identical float
// operations, so the in-process engine reproduces the wire path
// bit-for-bit.
func SignQuantizeInPlaceOf[T linalg.Float](g []T) {
	s := signScale(g)
	for j, v := range g {
		if signBit(v) {
			g[j] = -s
		} else {
			g[j] = s
		}
	}
}

// Int8QuantizeInPlaceOf replaces g with the values an int8-tier
// encode→decode round trip would deliver, using the identical float
// operations.
func Int8QuantizeInPlaceOf[T linalg.Float](g []T) {
	min, scale := int8Params(g)
	for j, v := range g {
		g[j] = min + scale*T(int8Quantize(v, min, scale))
	}
}

// appendUplinkSign appends one sign-tier frame of d-wide rows. Callers
// validated the files/grads shape (the Encode front door).
func appendUplinkSign[T linalg.Float](dst []byte, worker int, files []int, grads [][]T, d int) ([]byte, error) {
	dst, err := appendReportHeader(append(dst, UplinkSign), worker, files, d)
	if err != nil {
		return nil, err
	}
	for i, g := range grads {
		s := signScale(g)
		if s != s {
			return nil, fmt.Errorf("wire: sign frame row %d has NaN scale (non-finite gradient)", i)
		}
		dst = appendFloat(dst, s)
	}
	bpr := signBytesPerRow(d)
	for _, g := range grads {
		at := len(dst)
		dst = append(dst, make([]byte, bpr)...)
		bits := dst[at:]
		for j, v := range g {
			if !signBit(v) {
				bits[j/8] |= 1 << (j % 8)
			}
		}
	}
	return dst, nil
}

// appendUplinkInt8 appends one int8-tier frame of d-wide rows.
func appendUplinkInt8[T linalg.Float](dst []byte, worker int, files []int, grads [][]T, d int) ([]byte, error) {
	dst, err := appendReportHeader(append(dst, UplinkInt8), worker, files, d)
	if err != nil {
		return nil, err
	}
	for _, g := range grads {
		min, scale := int8Params(g)
		dst = appendFloat(dst, min)
		dst = appendFloat(dst, scale)
	}
	for _, g := range grads {
		at := len(dst)
		dst = append(dst, make([]byte, d)...)
		q := dst[at:]
		min, scale := int8Params(g)
		for j, v := range g {
			q[j] = int8Quantize(v, min, scale)
		}
	}
	return dst, nil
}

// decodeQuantHeader validates the shared quantized-frame prefix
// against the frame's fixed per-row cost and fills f's Worker/Files,
// returning n, d, and the body after the file list. perRow is the
// fixed byte cost of one row beyond its file id (scale fields plus
// value bytes), precomputed in uint64 space so hostile counts cannot
// overflow or trigger oversized allocations — everything is bounded by
// len(src) before n and d are trusted.
func decodeQuantHeader[T linalg.Float](src []byte, f *GradFrameOf[T], scaleBytes int, valueBytes func(d uint64) uint64) (n, d int, body []byte, err error) {
	if len(src) < quantHeader {
		return 0, 0, nil, fmt.Errorf("wire: quantized uplink frame truncated at %d bytes", len(src))
	}
	worker := int(binary.LittleEndian.Uint32(src[1:]))
	n64 := uint64(binary.LittleEndian.Uint32(src[5:]))
	d64 := uint64(binary.LittleEndian.Uint32(src[9:]))
	rem := uint64(len(src) - quantHeader)
	if n64 > 0 && n64 > rem/4 {
		return 0, 0, nil, fmt.Errorf("wire: quantized frame declares %d files for %d bytes", n64, rem)
	}
	if n64 == 0 && d64 != 0 {
		return 0, 0, nil, fmt.Errorf("wire: empty quantized frame declares dim %d", d64)
	}
	perRow := uint64(scaleBytes) + valueBytes(d64)
	if n64 > 0 && (rem-n64*4)/n64 < perRow {
		return 0, 0, nil, fmt.Errorf("wire: quantized frame declares %d×%d values for %d bytes", n64, d64, rem)
	}
	n, d = int(n64), int(d64)
	f.Worker = worker
	f.setFiles(src[quantHeader:], n)
	return n, d, src[quantHeader+n*4:], nil
}

// decodeUplinkSign parses one sign frame into f, returning the bytes
// consumed. Scales with a set sign bit or NaN payload, set padding
// bits, and a nonzero empty-row scale are rejected, so any accepted
// frame re-encodes to exactly the consumed bytes.
func decodeUplinkSign[T linalg.Float](src []byte, f *GradFrameOf[T]) (int, error) {
	w := linalg.Width[T]()
	bpr := uint64(0)
	n, d, body, err := decodeQuantHeader(src, f, w, func(d uint64) uint64 {
		bpr = (d + 7) / 8
		return bpr
	})
	if err != nil {
		return 0, err
	}
	if need := uint64(n) * (uint64(w) + bpr); uint64(len(body)) < need {
		return 0, fmt.Errorf("wire: sign frame truncated: %d rows need %d bytes, have %d", n, need, len(body))
	}
	f.growGrads(n, d)
	bits := body[n*w:]
	for i := 0; i < n; i++ {
		sb := getBits[T](body[i*w:])
		s := linalg.FromBits[T](sb)
		if signBit(s) || s != s {
			return 0, fmt.Errorf("wire: sign frame row %d has non-canonical scale", i)
		}
		if d == 0 && sb != 0 {
			return 0, fmt.Errorf("wire: sign frame empty row %d has nonzero scale", i)
		}
		row := bits[uint64(i)*bpr:]
		g := f.Grads[i]
		for j := 0; j < d; j++ {
			if row[j/8]&(1<<(j%8)) != 0 {
				g[j] = s
			} else {
				g[j] = -s
			}
		}
		if d%8 != 0 && row[bpr-1]>>(d%8) != 0 {
			return 0, fmt.Errorf("wire: sign frame row %d has set padding bits", i)
		}
	}
	return quantHeader + n*4 + n*w + n*int(bpr), nil
}

// decodeUplinkInt8 parses one int8 frame into f, returning the bytes
// consumed. Validation is structural only (see the package comment):
// dequantization of any accepted frame is deterministic, which is the
// property the vote needs.
func decodeUplinkInt8[T linalg.Float](src []byte, f *GradFrameOf[T]) (int, error) {
	w := linalg.Width[T]()
	n, d, body, err := decodeQuantHeader(src, f, 2*w, func(d uint64) uint64 { return d })
	if err != nil {
		return 0, err
	}
	if need := uint64(n) * uint64(2*w+d); uint64(len(body)) < need {
		return 0, fmt.Errorf("wire: int8 frame truncated: %d rows need %d bytes, have %d", n, need, len(body))
	}
	f.growGrads(n, d)
	vals := body[n*2*w:]
	for i := 0; i < n; i++ {
		min := linalg.FromBits[T](getBits[T](body[i*2*w:]))
		scale := linalg.FromBits[T](getBits[T](body[i*2*w+w:]))
		q := vals[i*d:]
		g := f.Grads[i]
		for j := 0; j < d; j++ {
			g[j] = min + scale*T(q[j])
		}
	}
	return quantHeader + n*4 + n*2*w + n*d, nil
}
