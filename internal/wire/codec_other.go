//go:build !amd64

package wire

import "byzshield/internal/linalg"

// Only amd64 has assembly codec bodies; linalg.SIMD() is always false
// here, so these are never called.

func int8RangeSIMD[T linalg.Float](g []T) (min, max T) {
	panic("wire: no SIMD codec bodies on this architecture")
}

func int8QuantizeSIMD[T linalg.Float](q []byte, g []T, min, scale T) {
	panic("wire: no SIMD codec bodies on this architecture")
}

func int8DequantizeSIMD[T linalg.Float](g []T, q []byte, min, scale T) {
	panic("wire: no SIMD codec bodies on this architecture")
}

func applyDeltaGroups[T linalg.Float](params []T, nibbles, payload []byte) (applied, consumed int) {
	panic("wire: no SIMD codec bodies on this architecture")
}
