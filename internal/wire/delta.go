// Parameter-broadcast codec (protocol v2). The PS→worker direction
// carries the model parameter vector every round; this codec makes that
// broadcast bandwidth-aware while staying bit-exact:
//
//   - a full frame ships every coordinate as its raw IEEE-754 bit
//     pattern (join/rejoin and periodic refresh), and
//   - a delta frame ships, per coordinate, the XOR of the new and base
//     bit patterns with high-order zero bytes stripped.
//
// Consecutive SGD iterates share sign, exponent, and the top mantissa
// bits of most coordinates, so the XOR against the previous round's
// vector concentrates its nonzero bytes at the low end; unchanged
// coordinates cost half a byte. Byte lengths are nibble-packed (two
// coordinates per byte) ahead of the payload, so with w = sizeof(T) the
// worst case is ⌈d/2⌉ + w·d bytes against w·d for a full frame, and
// typical training rounds are far below it. Applying a delta is a pure bit-level XOR, so
// a worker that folds deltas onto a full base reconstructs the PS
// vector bit-for-bit — NaN payloads and signed zeros included — which
// is what keeps the wire path's trajectory identical to the in-process
// engine's.
//
// Frame layout, little-endian:
//
//	u8   mode (1 = full, 2 = delta)
//	u32  coordinate count d
//	full:  d × value bit patterns, sizeof(T) bytes each
//	delta: ⌈d/2⌉ nibble-packed byte lengths 0–sizeof(T) (low nibble =
//	       even index), then per coordinate its significant low-order
//	       XOR bytes
//
// The encoding is canonical: each delta length is minimal (the highest
// included byte is nonzero), and the decoder rejects padded lengths, so
// any accepted frame re-encodes to exactly the consumed bytes.
package wire

import (
	"fmt"
	"math"

	"byzshield/internal/linalg"
)

// Params frame modes.
const (
	// ParamsFull is a self-contained broadcast of the whole vector.
	ParamsFull = 1
	// ParamsDelta is an XOR patch against the receiver's current vector.
	ParamsDelta = 2
)

// paramsHeader is the mode byte plus the coordinate count.
const paramsHeader = 5

// ParamsFullSizeOf returns the encoded size of a full params frame at
// T's width.
func ParamsFullSizeOf[T linalg.Float](d int) int { return paramsHeader + linalg.Width[T]()*d }

// AppendParamsFullOf appends a full-vector frame to dst.
func AppendParamsFullOf[T linalg.Float](dst []byte, params []T) ([]byte, error) {
	if int64(len(params)) > math.MaxUint32 {
		return nil, fmt.Errorf("wire: %d params exceed u32 count", len(params))
	}
	dst = append(dst, ParamsFull)
	dst = AppendU32(dst, uint32(len(params)))
	return AppendFloats(dst, params), nil
}

// AppendParamsDeltaOf appends a delta frame encoding cur against base.
// The receiver must hold exactly base to apply it.
func AppendParamsDeltaOf[T linalg.Float](dst []byte, base, cur []T) ([]byte, error) {
	if len(base) != len(cur) {
		return nil, fmt.Errorf("wire: delta base has %d params, cur %d", len(base), len(cur))
	}
	if int64(len(cur)) > math.MaxUint32 {
		return nil, fmt.Errorf("wire: %d params exceed u32 count", len(cur))
	}
	d := len(cur)
	dst = append(dst, ParamsDelta)
	dst = AppendU32(dst, uint32(d))
	nibbleAt := len(dst)
	dst = append(dst, make([]byte, (d+1)/2)...)
	for i, v := range cur {
		// Bit patterns travel zero-extended to uint64 (linalg.Bits), so
		// a length never exceeds sizeof(T); the decoder enforces it.
		x := linalg.Bits(base[i]) ^ linalg.Bits(v)
		n := xorLen(x)
		orNibbleLen(dst[nibbleAt:], i, n)
		dst = appendXORBytes(dst, x, n)
	}
	return dst, nil
}

// xorLen returns the minimal number of low-order bytes needed to
// represent x (0 for x == 0).
func xorLen(x uint64) int {
	n := 0
	for x != 0 {
		n++
		x >>= 8
	}
	return n
}

// orNibbleLen stores length n in the i-th nibble slot (low nibble =
// even index); the slot must still be zero.
func orNibbleLen(nibbles []byte, i, n int) {
	if i%2 == 0 {
		nibbles[i/2] |= byte(n)
	} else {
		nibbles[i/2] |= byte(n) << 4
	}
}

// nibbleLen reads the i-th nibble-packed length.
func nibbleLen(nibbles []byte, i int) int {
	n := int(nibbles[i/2])
	if i%2 == 0 {
		return n & 0x0f
	}
	return n >> 4
}

// appendXORBytes appends x's n significant low-order bytes.
func appendXORBytes(dst []byte, x uint64, n int) []byte {
	for b := 0; b < n; b++ {
		dst = append(dst, byte(x>>(8*b)))
	}
	return dst
}

// xorFromBytes reassembles a length-n little-endian XOR value from the
// front of payload; bounds and canonicality (nonzero top byte) are the
// caller's to check.
func xorFromBytes(payload []byte, n int) uint64 {
	var x uint64
	for b := n - 1; b >= 0; b-- {
		x = x<<8 | uint64(payload[b])
	}
	return x
}

// DecodeParamsOf parses one params frame from the front of src and
// applies it to params in place: a full frame overwrites every
// coordinate, a delta frame XORs each coordinate's bit pattern (the
// caller must hold the exact base vector the delta was encoded
// against). Returns the frame mode and the bytes consumed. The frame's
// coordinate count must match len(params), and delta lengths must be
// at most sizeof(T) (a length only the wider instantiation could emit
// is rejected) and canonical (highest included byte nonzero), so
// arbitrary input either fails or round-trips exactly. On error params
// may have been partially updated and must be treated as garbage
// (receivers recover by requesting or awaiting a full frame).
func DecodeParamsOf[T linalg.Float](src []byte, params []T) (mode, consumed int, err error) {
	if len(src) < paramsHeader {
		return 0, 0, fmt.Errorf("wire: params frame truncated at %d bytes", len(src))
	}
	mode = int(src[0])
	d64 := uint64(src[1]) | uint64(src[2])<<8 | uint64(src[3])<<16 | uint64(src[4])<<24
	if d64 != uint64(len(params)) {
		return 0, 0, fmt.Errorf("wire: params frame has %d coordinates, want %d", d64, len(params))
	}
	d := len(params)
	w := linalg.Width[T]()
	body := src[paramsHeader:]
	switch mode {
	case ParamsFull:
		if len(body) < w*d {
			return 0, 0, fmt.Errorf("wire: full params frame needs %d bytes, have %d", w*d, len(body))
		}
		DecodeFloats(params, body)
		return ParamsFull, paramsHeader + w*d, nil
	case ParamsDelta:
		nb := (d + 1) / 2
		if len(body) < nb {
			return 0, 0, fmt.Errorf("wire: delta frame needs %d length bytes, have %d", nb, len(body))
		}
		nibbles, payload := body[:nb], body[nb:]
		off := 0
		for i := 0; i < d; i++ {
			n := nibbleLen(nibbles, i)
			if n > w {
				return 0, 0, fmt.Errorf("wire: delta length %d > %d at coordinate %d", n, w, i)
			}
			if len(payload)-off < n {
				return 0, 0, fmt.Errorf("wire: delta payload truncated at coordinate %d", i)
			}
			if n > 0 && payload[off+n-1] == 0 {
				return 0, 0, fmt.Errorf("wire: non-canonical delta length at coordinate %d", i)
			}
			x := xorFromBytes(payload[off:], n)
			off += n
			params[i] = linalg.FromBits[T](linalg.Bits(params[i]) ^ x)
		}
		if d%2 == 1 && nibbles[nb-1]>>4 != 0 {
			return 0, 0, fmt.Errorf("wire: delta frame has a set padding nibble")
		}
		return ParamsDelta, paramsHeader + nb + off, nil
	default:
		return 0, 0, fmt.Errorf("wire: unknown params frame mode %d", mode)
	}
}
