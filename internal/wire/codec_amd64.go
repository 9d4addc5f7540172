package wire

import (
	"unsafe"

	"byzshield/internal/linalg"
)

// The AVX-512 bodies of the int8 uplink codec and the XOR-delta params
// decoder (codec_amd64.s). quant.go and delta.go call them only where
// linalg.SIMD() (linalg.SIMDVBMI() for the delta decoder) is true, and
// run their own Go loops otherwise and on the values these leave. The
// int8 bodies take whole codecBlock-value blocks.

// int8RangeSIMD returns the lane-reduced (min, max) of g, a non-empty
// whole number of blocks, with int8Range's compares; a ±0 result may
// carry either sign (int8Range settles it).
func int8RangeSIMD[T linalg.Float](g []T) (min, max T) {
	p := unsafe.Pointer(unsafe.SliceData(g))
	if linalg.Width[T]() == 4 {
		lo, hi := int8Range32((*float32)(p), len(g))
		return T(lo), T(hi)
	}
	lo, hi := int8Range64((*float64)(p), len(g))
	return T(lo), T(hi)
}

// int8QuantizeSIMD is int8QuantizeRow's loop over a whole number of
// blocks, for a nonzero scale.
func int8QuantizeSIMD[T linalg.Float](q []byte, g []T, min, scale T) {
	if len(g) == 0 {
		return
	}
	_ = q[len(g)-1]
	p := unsafe.Pointer(unsafe.SliceData(g))
	if linalg.Width[T]() == 4 {
		int8Quantize32(&q[0], (*float32)(p), len(g), float32(min), float32(scale))
		return
	}
	int8Quantize64(&q[0], (*float64)(p), len(g), float64(min), float64(scale))
}

// int8DequantizeSIMD is int8DequantizeRow's loop over a whole number
// of blocks.
func int8DequantizeSIMD[T linalg.Float](g []T, q []byte, min, scale T) {
	if len(g) == 0 {
		return
	}
	_ = q[len(g)-1]
	p := unsafe.Pointer(unsafe.SliceData(g))
	if linalg.Width[T]() == 4 {
		int8Dequantize32((*float32)(p), &q[0], len(g), float32(min), float32(scale))
		return
	}
	int8Dequantize64((*float64)(p), &q[0], len(g), float64(min), float64(scale))
}

// applyDeltaGroups applies the delta's coordinates in groups of
// 64/sizeof(T), one 64-byte payload window each, while a whole window
// is left. It stops before a group with a length above sizeof(T) or a
// zero top byte, and returns the coordinates applied and payload bytes
// consumed; applyDeltaPairs and the per-byte loop go on from there.
func applyDeltaGroups[T linalg.Float](params []T, nibbles, payload []byte) (applied, consumed int) {
	lanes := 64 / linalg.Width[T]()
	groups := len(params) / lanes
	if groups == 0 || len(payload) < 64 {
		return 0, 0
	}
	_ = nibbles[groups*lanes/2-1]
	p := unsafe.Pointer(unsafe.SliceData(params))
	if lanes == 16 {
		groups, consumed = applyDelta32((*float32)(p), groups, &nibbles[0], &payload[0], len(payload))
	} else {
		groups, consumed = applyDelta64((*float64)(p), groups, &nibbles[0], &payload[0], len(payload))
	}
	return groups * lanes, consumed
}

//go:noescape
func int8Range64(row *float64, n int) (min, max float64)

//go:noescape
func int8Range32(row *float32, n int) (min, max float32)

//go:noescape
func int8Quantize64(q *byte, row *float64, n int, min, scale float64)

//go:noescape
func int8Quantize32(q *byte, row *float32, n int, min, scale float32)

//go:noescape
func int8Dequantize64(row *float64, q *byte, n int, min, scale float64)

//go:noescape
func int8Dequantize32(row *float32, q *byte, n int, min, scale float32)

//go:noescape
func applyDelta64(params *float64, groups int, nibbles, payload *byte, plen int) (applied, consumed int)

//go:noescape
func applyDelta32(params *float32, groups int, nibbles, payload *byte, plen int) (applied, consumed int)
