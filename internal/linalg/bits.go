package linalg

import (
	"bytes"
	"errors"
	"math"
	"unsafe"
)

// ErrNoFloat32Kernels is wrapped by model.BindOf[float32] and
// aggregate.BindOf[float32] when a component implements only the
// float64 methods — the MLP, and every aggregation rule that is not
// coordinate-wise (the Krum family, Bulyan, geometric median). It is the
// one refusal the float32 tier makes.
var ErrNoFloat32Kernels = errors.New("no float32 kernels")

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

// NewWideRows allocates the scratch WidenRows widens n rows of dim values
// into: nil at T = float64, where there is nothing to widen.
func NewWideRows[T Float](n, dim int) [][]float64 {
	if Width[T]() == 8 {
		return nil
	}
	flat := make([]float64, n*dim)
	rows := make([][]float64, n)
	for v := range rows {
		rows[v] = flat[v*dim : (v+1)*dim : (v+1)*dim]
	}
	return rows
}

// WidenRows returns rows as float64 rows — the view the adversary plane
// (attack, detect) reads at either engine width: rows itself at
// T = float64, no copy; at float32 each row widened into the matching
// row of dst (NewWideRows).
func WidenRows[T Float](dst [][]float64, rows [][]T) [][]float64 {
	if w, ok := any(rows).([][]float64); ok {
		return w
	}
	for v, r := range rows {
		d := dst[v]
		for i, x := range r {
			d[i] = float64(x)
		}
	}
	return dst[:len(rows)]
}

// Narrow is WidenRows' mirror for one vector coming back: p itself at
// T = float64; at float32 its element-wise narrowing into dst, grown if
// it is too short. Narrowing is a function of the bits alone, so copies
// of one float64 payload narrow to identical float32 bits wherever they
// are narrowed.
func Narrow[T Float](dst []T, p []float64) []T {
	if t, ok := any(p).([]T); ok {
		return t
	}
	if cap(dst) < len(p) {
		dst = make([]T, len(p))
	}
	dst = dst[:len(p)]
	for i, x := range p {
		dst[i] = T(x)
	}
	return dst
}
