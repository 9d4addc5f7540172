package linalg

import (
	"bytes"
	"math"
	"unsafe"
)

// Bit-pattern access for Float. The majority vote, the XOR-delta
// codecs and the bit-identity pins all reason about IEEE-754 patterns
// rather than values, at whichever width a run trains in. These
// helpers bind the width at instantiation: float32 and float64 are
// distinct GC shapes, so each gets its own stencil in which Width
// (unsafe.Sizeof) is a constant, the untaken branch is dead code, and
// the remaining conversion (T to its own underlying type) is a no-op —
// no type switch and no dictionary call per element.

// Width returns sizeof(T) in bytes: 4 or 8.
func Width[T Float]() int {
	var z T
	return int(unsafe.Sizeof(z))
}

// Bits returns v's IEEE-754 bit pattern, zero-extended to 64 bits.
func Bits[T Float](v T) uint64 {
	if Width[T]() == 4 {
		return uint64(math.Float32bits(float32(v)))
	}
	return math.Float64bits(float64(v))
}

// FromBits returns the T whose bit pattern is the low Width[T]() bytes
// of x — the inverse of Bits, NaN payloads included.
func FromBits[T Float](x uint64) T {
	if Width[T]() == 4 {
		return T(math.Float32frombits(uint32(x)))
	}
	return T(math.Float64frombits(x))
}

// Bytes returns the memory of x viewed as bytes: Width[T]()*len(x) of
// them, in host byte order, aliasing x. It is the one place the float
// slices are reinterpreted; callers that put the view on the wire must
// first check the host is little-endian (wire.AppendFloats does).
func Bytes[T Float](x []T) []byte {
	if len(x) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&x[0])), Width[T]()*len(x))
}

// EqualBits reports whether a and b hold identical bit patterns: the
// protocol's notion of "equal" gradients (Eq. 3 votes replicas by it,
// and every bit-identity pin compares trajectories by it). Unlike ==,
// NaN equals NaN and +0 differs from −0 — which is exactly equality of
// the two memory images, on any byte order, so the comparison is one
// memequal rather than a Bits call per element.
func EqualBits[T Float](a, b []T) bool {
	return len(a) == len(b) && bytes.Equal(Bytes(a), Bytes(b))
}
