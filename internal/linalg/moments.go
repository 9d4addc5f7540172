package linalg

import (
	"fmt"
	"math"
	"unsafe"
)

// The coordinate-wise moments: the mean the mean rule and MeanVecInto
// return, and the mean and population standard deviation ALIE crafts
// from. Every value is one row-order chain, the same in both bodies:
//
//	mean:  s = +0; s += rows[r][i] for r = 0…n−1; mu[i] = s·(1/n)
//	sigma: s = +0; s += (rows[r][i] − mu[i])² for r = 0…n−1; sigma[i] = √(s·(1/n))
//
// On amd64 CPUs with AVX-512F the float64 kernels run momentBlocks
// (moments_amd64.s) over every full block of momentBlock coordinates,
// both passes while the block's rows are in L1, and the portable loops
// below over the coordinates past the last full block. Coordinates are
// independent and the assembly never sums across lanes or fuses a
// multiply into an add, so the two bodies agree bit for bit. float32
// always runs the portable loops.

// momentBlock is the number of coordinates momentBlocks reduces per
// pass: four 512-bit registers of float64.
const momentBlock = 32

// MeanRange sets out[i] to the mean of rows' coordinate i for every
// lo ≤ i < hi: summed in row order from +0, then multiplied by 1/n
// (n = len(rows) ≥ 1), so every i gets MeanVecInto's bits. Every row
// and out must cover [lo, hi).
func MeanRange[T Float](out []T, rows [][]T, lo, hi int) {
	if len(rows) == 0 {
		panic("linalg: empty vector set")
	}
	if lo < 0 || lo > hi || hi > len(out) {
		panic(fmt.Sprintf("linalg: MeanRange: range [%d,%d) of %d outputs", lo, hi, len(out)))
	}
	for i, v := range rows {
		if len(v) < hi {
			panic(fmt.Sprintf("linalg: MeanRange: vector %d has dim %d, range ends at %d", i, len(v), hi))
		}
	}
	inv := 1 / T(len(rows))
	if blocks := (hi - lo) / momentBlock; Width[T]() == 8 && simd && blocks > 0 {
		momentBlocks((*float64)(unsafe.Pointer(unsafe.SliceData(out))), nil, (*[]float64)(unsafe.Pointer(unsafe.SliceData(rows))), len(rows), lo, blocks, float64(inv))
		lo += blocks * momentBlock
	}
	meanRange(out, rows, lo, hi, inv)
}

// MomentsInto sets mu and sigma to the coordinate-wise mean and
// population standard deviation of rows, bit for bit MeanVecInto(mu,
// rows) followed by StdVecInto(sigma, mu, rows). mu and sigma must hold
// at least the rows' dimension.
func MomentsInto(mu, sigma []float64, rows [][]float64) {
	d := checkSameLen(rows)
	if len(mu) < d || len(sigma) < d {
		panic(fmt.Sprintf("linalg: MomentsInto: %d means and %d deviations for dim %d", len(mu), len(sigma), d))
	}
	inv := 1 / float64(len(rows))
	lo := 0
	if blocks := d / momentBlock; simd && blocks > 0 {
		momentBlocks(unsafe.SliceData(mu), unsafe.SliceData(sigma), unsafe.SliceData(rows), len(rows), 0, blocks, inv)
		lo = blocks * momentBlock
	}
	meanRange(mu, rows, lo, d, inv)
	stdRange(sigma, mu, rows, lo, d, inv)
}

// meanRange is MeanRange's portable body: the rows are summed into
// out[lo:hi] one after another, four coordinates a step, then scaled.
func meanRange[T Float](out []T, rows [][]T, lo, hi int, inv T) {
	out = out[lo:hi]
	clear(out)
	for _, v := range rows {
		v = v[lo:hi]
		i := 0
		for ; i+4 <= len(out); i += 4 {
			out[i] += v[i]
			out[i+1] += v[i+1]
			out[i+2] += v[i+2]
			out[i+3] += v[i+3]
		}
		for ; i < len(out); i++ {
			out[i] += v[i]
		}
	}
	ScaleInPlace(out, inv)
}

// stdRange sets out[lo:hi] to the population standard deviation of the
// rows around mean, the squared deviations summed one row after another.
// The square root runs in float64 for both widths (Go has no float32
// sqrt intrinsic in the math package); float32 rounds the result once.
func stdRange[T Float](out, mean []T, rows [][]T, lo, hi int, inv T) {
	out, mean = out[lo:hi], mean[lo:hi]
	clear(out)
	for _, v := range rows {
		v = v[lo:hi]
		i := 0
		for ; i+4 <= len(out); i += 4 {
			d0 := v[i] - mean[i]
			d1 := v[i+1] - mean[i+1]
			d2 := v[i+2] - mean[i+2]
			d3 := v[i+3] - mean[i+3]
			out[i] += d0 * d0
			out[i+1] += d1 * d1
			out[i+2] += d2 * d2
			out[i+3] += d3 * d3
		}
		for ; i < len(out); i++ {
			diff := v[i] - mean[i]
			out[i] += diff * diff
		}
	}
	for i := range out {
		out[i] = T(math.Sqrt(float64(out[i] * inv)))
	}
}
