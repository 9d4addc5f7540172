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
//
// Cost. The int8 encoder scans each row twice, once for (min, scale)
// and once to quantize; the value rows read their (min, scale) back
// from the table already written. Its rounding is a truncate-and-compare
// at T's width that equals math.Round on the clamped range (DESIGN
// §9.8). Where linalg.SIMD() holds, the scan, the quantizer and the
// decoder run each row's whole 16-value blocks in AVX-512 lanes
// (codec_amd64.s) with the scalar loops' compares, roundings and
// clamps, division included, so every frame and every decoded bit is
// the portable loops'. At fleet-k60-int8's row (d = 16 008) that is
// ≥ 2.5× the portable encoder and ≥ 3× the portable decoder.
package wire

import (
	"encoding/binary"
	"fmt"
	"slices"

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
// range mapped onto 255 steps (both 0 for an empty row).
func int8Params[T linalg.Float](g []T) (min, scale T) {
	if len(g) == 0 {
		return 0, 0
	}
	min, max := int8Range(g)
	return min, (max - min) / 255
}

// int8Range returns the (min, max) of a non-empty row as the strict
// comparison loop below finds it: a NaN never replaces the current
// value, so a row starting with NaN yields that NaN for both, and of
// equal values the first in index order wins, so the first zero sets
// the sign of a ±0 extreme. The SIMD body scans the row's whole
// 16-value blocks in lanes that start from g[0], with the same
// compares; its lane reduction cannot tell +0 from −0, so a zero
// extreme takes the sign of the blocks' first zero, and the loop goes
// on from there over the rest.
func int8Range[T linalg.Float](g []T) (min, max T) {
	min, max = g[0], g[0]
	rest := g[1:]
	if n := len(g) &^ (codecBlock - 1); n > 0 && linalg.SIMD() {
		min, max = int8RangeSIMD(g[:n])
		if min == 0 || max == 0 {
			z := firstZero(g[:n])
			if min == 0 {
				min = z
			}
			if max == 0 {
				max = z
			}
		}
		rest = g[n:]
	}
	for _, v := range rest {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// codecBlock is the values one step of the int8 SIMD bodies takes; the
// Go loops run the rows' last len%codecBlock values.
const codecBlock = 16

// firstZero returns the first ±0 of g, which holds one.
func firstZero[T linalg.Float](g []T) T {
	for _, v := range g {
		if v == 0 {
			return v
		}
	}
	panic("wire: firstZero on a row without a zero")
}

// int8Quantize maps one value onto the row's grid, entirely in T. NaN
// and -Inf arguments clamp to 0, +Inf to 255, so the conversion to byte
// is always defined behavior. Inside the clamps, 0 < t < 255, the
// rounding is math.Round's — half away from zero — done as truncate and
// compare: t−⌊t⌋ is exact there, so it is ≥ ½ exactly when
// math.Round(t) = ⌊t⌋+1 (DESIGN §9.8).
func int8Quantize[T linalg.Float](v, min, scale T) uint8 {
	if scale == 0 {
		return 0
	}
	t := (v - min) / scale
	if !(t > 0) {
		return 0
	}
	if t >= 255 {
		return 255
	}
	i := int(t)
	if t-T(i) >= 0.5 {
		i++
	}
	return uint8(i)
}

// int8QuantizeRow quantizes g into q (len(q) = len(g)) with
// int8Quantize's operations, the row's whole blocks in SIMD lanes:
// subtract, divide, the two clamps and truncate-and-compare, each at
// T's width. A zero scale (a constant row, or a range too small for
// the scale to survive the division by 255) stays with int8Quantize,
// which returns 0 before it divides.
func int8QuantizeRow[T linalg.Float](q []byte, g []T, min, scale T) {
	j := 0
	if scale != 0 && linalg.SIMD() {
		j = len(g) &^ (codecBlock - 1)
		int8QuantizeSIMD(q[:j], g[:j], min, scale)
	}
	g = g[j:]
	q = q[j:][:len(g)]
	for i, v := range g {
		q[i] = int8Quantize(v, min, scale)
	}
}

// int8DequantizeRow sets g[j] = min + scale·q[j] at T's width, the
// row's whole blocks in SIMD lanes with the same two roundings (no
// fused multiply-add).
func int8DequantizeRow[T linalg.Float](g []T, q []byte, min, scale T) {
	j := 0
	if linalg.SIMD() {
		j = len(g) &^ (codecBlock - 1)
		int8DequantizeSIMD(g[:j], q[:j], min, scale)
	}
	g = g[j:]
	q = q[j:][:len(g)]
	for i := range g {
		g[i] = min + scale*T(q[i])
	}
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
	lo, scale := int8Params(g)
	var q [512]byte
	for len(g) > 0 {
		n := min(len(g), len(q))
		int8QuantizeRow(q[:n], g[:n], lo, scale)
		int8DequantizeRow(g[:n], q[:n], lo, scale)
		g = g[n:]
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
	table := len(dst)
	for _, g := range grads {
		min, scale := int8Params(g)
		dst = appendFloat(dst, min)
		dst = appendFloat(dst, scale)
	}
	// The value rows follow the whole (min, scale) table, so each row
	// reads its pair back from the bytes just written (exact: a bit
	// pattern round trip) rather than scanning the row a second time.
	w := linalg.Width[T]()
	dst = slices.Grow(dst, len(grads)*d)
	for i, g := range grads {
		min := linalg.FromBits[T](getBits[T](dst[table+2*w*i:]))
		scale := linalg.FromBits[T](getBits[T](dst[table+2*w*i+w:]))
		at := len(dst)
		dst = dst[:at+d]
		int8QuantizeRow(dst[at:], g[:d], min, scale)
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
		int8DequantizeRow(f.Grads[i], vals[i*d:(i+1)*d], min, scale)
	}
	return quantHeader + n*4 + n*2*w + n*d, nil
}
