package linalg

import (
	"fmt"
	"math"
)

// Vector helpers. Vectors are slices of a Float element type — the
// kernels are generic over float32 and float64 so the two precision
// tiers of the training protocol share one implementation. Functions
// that combine a set of vectors require equal lengths and panic
// otherwise, mirroring the hard precondition that all gradient vectors
// in a round share the model dimension.
//
// Bit-identity discipline: the float64 instantiations perform exactly
// the floating-point operations (same order, same intermediates) the
// pre-generic kernels performed, so every pinned f64 trajectory is
// unchanged. The hot kernels iterate the coordinate axis 4-wide —
// coordinates are independent, so unrolling changes no per-coordinate
// operation sequence while giving the compiler straight-line bodies it
// can vectorize.

// Float is the element-type constraint of the vector kernels: the two
// IEEE-754 widths the precision tiers train in.
type Float interface {
	~float32 | ~float64
}

// checkSameLen panics unless all vectors share one length, returning it.
func checkSameLen[T Float](vs [][]T) int {
	if len(vs) == 0 {
		panic("linalg: empty vector set")
	}
	d := len(vs[0])
	for i, v := range vs {
		if len(v) != d {
			panic(fmt.Sprintf("linalg: vector %d has dim %d, want %d", i, len(v), d))
		}
	}
	return d
}

// Zeros returns a zero vector of dimension d.
func Zeros(d int) []float64 { return make([]float64, d) }

// CloneVec returns a copy of v.
func CloneVec[T Float](v []T) []T {
	out := make([]T, len(v))
	copy(out, v)
	return out
}

// AddInPlace adds b into a (a += b).
func AddInPlace[T Float](a, b []T) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: add dim mismatch %d vs %d", len(a), len(b)))
	}
	for i := range a {
		a[i] += b[i]
	}
}

// Sub returns a - b as a new vector.
func Sub[T Float](a, b []T) []T {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: sub dim mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]T, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// ScaleVec returns s*v as a new vector.
func ScaleVec[T Float](v []T, s T) []T {
	out := make([]T, len(v))
	for i := range v {
		out[i] = s * v[i]
	}
	return out
}

// ScaleInPlace multiplies v by s in place.
func ScaleInPlace[T Float](v []T, s T) {
	i := 0
	for ; i+4 <= len(v); i += 4 {
		v[i] *= s
		v[i+1] *= s
		v[i+2] *= s
		v[i+3] *= s
	}
	for ; i < len(v); i++ {
		v[i] *= s
	}
}

// AxpyInPlace performs a += s*b.
func AxpyInPlace[T Float](a []T, s T, b []T) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: axpy dim mismatch %d vs %d", len(a), len(b)))
	}
	i := 0
	for ; i+4 <= len(a); i += 4 {
		a[i] += s * b[i]
		a[i+1] += s * b[i+1]
		a[i+2] += s * b[i+2]
		a[i+3] += s * b[i+3]
	}
	for ; i < len(a); i++ {
		a[i] += s * b[i]
	}
}

// Dot returns the inner product of a and b. The accumulation is a
// single serial sum — unrolled accumulators would change the rounding
// sequence, and downstream consumers pin the exact result.
func Dot[T Float](a, b []T) T {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: dot dim mismatch %d vs %d", len(a), len(b)))
	}
	var s T
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2[T Float](v []T) T {
	return T(math.Sqrt(float64(Dot(v, v))))
}

// Dist2 returns the Euclidean distance between a and b.
func Dist2[T Float](a, b []T) T {
	return T(math.Sqrt(float64(SqDist2(a, b))))
}

// SqDist2 returns the squared Euclidean distance between a and b.
// Krum-style scores use squared distances, so expose it directly.
func SqDist2[T Float](a, b []T) T {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: dist dim mismatch %d vs %d", len(a), len(b)))
	}
	var s T
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// MeanVec returns the coordinate-wise mean of the vectors.
func MeanVec[T Float](vs [][]T) []T {
	return MeanVecInto(make([]T, checkSameLen(vs)), vs)
}

// MeanVecInto computes the coordinate-wise mean into out (which must
// have the vectors' dimension) and returns it. The accumulation order
// matches MeanVec exactly, so the two are bit-identical.
func MeanVecInto[T Float](out []T, vs [][]T) []T {
	d := checkSameLen(vs)
	clear(out)
	for _, v := range vs {
		v = v[:d]
		i := 0
		for ; i+4 <= d; i += 4 {
			out[i] += v[i]
			out[i+1] += v[i+1]
			out[i+2] += v[i+2]
			out[i+3] += v[i+3]
		}
		for ; i < d; i++ {
			out[i] += v[i]
		}
	}
	inv := 1 / T(len(vs))
	ScaleInPlace(out[:d], inv)
	return out
}

// StdVec returns the coordinate-wise (population) standard deviation.
func StdVec[T Float](vs [][]T) []T {
	d := checkSameLen(vs)
	return StdVecInto(make([]T, d), MeanVec(vs), vs)
}

// StdVecInto computes the coordinate-wise population standard
// deviation around mean into out and returns it; bit-identical to
// StdVec when mean is the vectors' MeanVec. The square root runs in
// float64 for both widths (Go has no float32 sqrt intrinsic in the
// math package); the float32 instantiation rounds the result once.
func StdVecInto[T Float](out, mean []T, vs [][]T) []T {
	d := checkSameLen(vs)
	clear(out)
	for _, v := range vs {
		v = v[:d]
		i := 0
		for ; i+4 <= d; i += 4 {
			d0 := v[i] - mean[i]
			d1 := v[i+1] - mean[i+1]
			d2 := v[i+2] - mean[i+2]
			d3 := v[i+3] - mean[i+3]
			out[i] += d0 * d0
			out[i+1] += d1 * d1
			out[i+2] += d2 * d2
			out[i+3] += d3 * d3
		}
		for ; i < d; i++ {
			diff := v[i] - mean[i]
			out[i] += diff * diff
		}
	}
	inv := 1 / T(len(vs))
	for i := range out {
		out[i] = T(math.Sqrt(float64(out[i] * inv)))
	}
	return out
}

// MedianVec returns the coordinate-wise median (MedianRange over every
// coordinate). For even counts the average of the two central order
// statistics is used.
func MedianVec[T Float](vs [][]T) []T {
	out := make([]T, checkSameLen(vs))
	MedianRange(out, vs, 0, len(out), make([]T, len(vs)), new(RangeScratch))
	return out
}

// MedianOf returns the median of xs. xs is not modified.
func MedianOf[T Float](xs []T) T {
	if len(xs) == 0 {
		panic("linalg: median of empty slice")
	}
	tmp := append([]T(nil), xs...)
	return MedianSelect(tmp)
}

// TrimmedMeanOf returns the mean of xs after removing the trim smallest
// and trim largest values. It panics if 2*trim >= len(xs).
func TrimmedMeanOf[T Float](xs []T, trim int) T {
	n := len(xs)
	if trim < 0 || 2*trim >= n {
		panic(fmt.Sprintf("linalg: trimmed mean with trim=%d of %d values", trim, n))
	}
	tmp := append([]T(nil), xs...)
	return TrimmedMeanSelect(tmp, trim)
}

// NormalQuantile returns the standard normal inverse CDF at probability
// p in (0, 1). Used by the ALIE attack to pick the perturbation scale z
// that stays inside the defenders' plausibility region.
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("linalg: normal quantile of p=%v outside (0,1)", p))
	}
	return math.Sqrt2 * math.Erfinv(2*p-1)
}

// NormalCDF returns the standard normal CDF at x.
func NormalCDF(x float64) float64 {
	return 0.5 * (1 + math.Erf(x/math.Sqrt2))
}

// ArgMin returns the index of the smallest element (first on ties).
func ArgMin[T Float](xs []T) int {
	if len(xs) == 0 {
		panic("linalg: argmin of empty slice")
	}
	best := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[best] {
			best = i
		}
	}
	return best
}

// ArgMax returns the index of the largest element (first on ties).
func ArgMax[T Float](xs []T) int {
	if len(xs) == 0 {
		panic("linalg: argmax of empty slice")
	}
	best := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] > xs[best] {
			best = i
		}
	}
	return best
}
