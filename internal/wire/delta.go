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
//
// Cost. Both directions run a word at a time (DESIGN §9.8): the encoder
// stores each XOR value as one 8-byte word and advances by its length,
// and the decoder loads each as one word masked to its length, two
// coordinates per nibble byte, leaving the frame's last coordinates and
// any pair it cannot settle to a per-byte loop that owns every error.
// Where linalg.SIMDVBMI() holds, the decoder first takes 64/sizeof(T)
// coordinates a step from one 64-byte payload window (VPERMB on
// prefix-summed lengths, codec_amd64.s), stopping before any group the
// word loop would stop in. At fleet-k60-int8's shape (d = 16 008, an
// SGD-step delta) the encoder is ≥ 3× the per-byte one kept in the
// tests, the word-at-a-time decoder ≥ 2× it, and the SIMD decoder ≥ 3×
// the word-at-a-time one.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

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
//
// The loop is word-at-a-time: dst grows once to the worst case plus
// eight bytes of slack, each XOR value goes out as one 8-byte store,
// and the write offset advances by its significant byte count, so the
// next store overwrites the zero high bytes. Two coordinates share a
// nibble byte, written whole.
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
	nb := (d + 1) / 2
	start := len(dst)
	worst := nb + linalg.Width[T]()*d + 8
	dst = slices.Grow(dst, worst)
	out := dst[start : start+worst]
	// Bit patterns travel zero-extended to uint64 (linalg.Bits), so a
	// length never exceeds sizeof(T); the decoder enforces it.
	off := nb
	for pair := 0; pair < d/2; pair++ {
		x0 := linalg.Bits(base[2*pair]) ^ linalg.Bits(cur[2*pair])
		x1 := linalg.Bits(base[2*pair+1]) ^ linalg.Bits(cur[2*pair+1])
		n0, n1 := xorLen(x0), xorLen(x1)
		out[pair] = byte(n0) | byte(n1)<<4
		binary.LittleEndian.PutUint64(out[off:], x0)
		off += n0
		binary.LittleEndian.PutUint64(out[off:], x1)
		off += n1
	}
	if d%2 == 1 {
		x := linalg.Bits(base[d-1]) ^ linalg.Bits(cur[d-1])
		n := xorLen(x)
		out[nb-1] = byte(n) // the high nibble is the zero padding
		binary.LittleEndian.PutUint64(out[off:], x)
		off += n
	}
	return dst[:start+off], nil
}

// xorLen returns the minimal number of low-order bytes needed to
// represent x (0 for x == 0).
func xorLen(x uint64) int { return (bits.Len64(x) + 7) >> 3 }

// deltaMask[n] keeps the low n bytes of a word, and deltaFloor[n] is
// the least n-byte value whose top byte is nonzero (0 for n = 0): the
// decoder's fast path masks and checks a length with one load each.
// Lengths 9–15 are never looked up (the decoder rejects them first);
// the tables cover every nibble so the index needs no bounds check.
var deltaMask, deltaFloor = func() (mask, floor [16]uint64) {
	for n := 1; n <= 8; n++ {
		mask[n] = 1<<(8*n) - 1
		floor[n] = 1 << (8*n - 8)
	}
	return mask, floor
}()

// nibbleLen reads the i-th nibble-packed length.
func nibbleLen(nibbles []byte, i int) int {
	n := int(nibbles[i/2])
	if i%2 == 0 {
		return n & 0x0f
	}
	return n >> 4
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

// applyDeltaPairs is DecodeParamsOf's word-at-a-time fast path, which
// goes on where applyDeltaGroups' SIMD groups stop. It applies the
// delta's coordinates two per nibble byte while 16 payload bytes remain
// (so once both lengths are at most sizeof(T), both loads stay in
// bounds), each XOR value one 8-byte load masked to its length. A
// masked value is canonical exactly when it reaches its length's floor:
// its top byte is nonzero (any value for n = 0). It stops, leaving the
// pair unapplied, at the first length above sizeof(T) or non-canonical
// one, and returns the coordinates applied and payload bytes consumed;
// the per-byte loop goes on from there and reports the pair's error.
func applyDeltaPairs[T linalg.Float](params []T, nibbles, payload []byte) (applied, consumed int) {
	w := byte(linalg.Width[T]())
	rest, pair := payload, 0
	for ; pair < len(params)/2 && len(rest) >= 16; pair++ {
		nn := nibbles[pair]
		n0, n1 := nn&0x0f, nn>>4
		if n0 > w || n1 > w {
			break
		}
		x0 := binary.LittleEndian.Uint64(rest) & deltaMask[n0]
		x1 := binary.LittleEndian.Uint64(rest[n0:]) & deltaMask[n1]
		if x0 < deltaFloor[n0] || x1 < deltaFloor[n1] {
			break
		}
		rest = rest[n0+n1:]
		v := params[2*pair : 2*pair+2]
		v[0] = linalg.FromBits[T](linalg.Bits(v[0]) ^ x0)
		v[1] = linalg.FromBits[T](linalg.Bits(v[1]) ^ x1)
	}
	return 2 * pair, len(payload) - len(rest)
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
		i, off := 0, 0
		if linalg.SIMDVBMI() {
			i, off = applyDeltaGroups(params, nibbles, payload)
		}
		j, o := applyDeltaPairs(params[i:], nibbles[i/2:], payload[off:])
		i, off = i+j, off+o
		for ; i < d; i++ {
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
