package linalg

import (
	"fmt"
	"unsafe"
)

// Dense-layer kernels for the MLP. Each has a portable Go body — the
// one-chain scalar loops — and, on amd64 CPUs with AVX-512F, an assembly
// body (dense_amd64.s) that runs eight float64 lanes per instruction.
// The lanes never share a value: AffineLanes puts one sample in each
// lane, AddOuter and BackpropReLU one coordinate, so every value still
// gets one rounded multiply and one rounded add per term, in the scalar
// loop's order. The assembly never sums across lanes and never fuses a
// multiply into an add (Go's compiler fuses only an explicit math.FMA),
// so its results are the portable body's bit for bit.
//
// Where both operands of a multiply or an add are NaN, x86 returns the
// first source's payload. The assembly gives each instruction the
// operand order the compiler emits for the scalar loop — in the forward
// pass the weight before the input and the accumulator before the
// product, in the backward kernels the product before the value it is
// added to, and the bias before its delta — so even a NaN keeps the
// portable body's bits.

// DenseLanes is the number of samples AffineLanes computes per pass:
// one float64 per lane of a 512-bit register.
const DenseLanes = 8

// AffineLanes computes a dense layer for DenseLanes samples at once. x
// holds the samples transposed, n rows of DenseLanes lanes (input j of
// sample k at x[j·DenseLanes+k]); w is the m×n row-major weight matrix
// and b its m biases, m = len(b). It sets out[o·DenseLanes+k] to
// Σ_j w[o·n+j]·x[j·DenseLanes+k] + b[o], summed j = 0…n−1 in order
// from zero and then biased — every lane its sample's one-chain dot
// product — and with relu replaces each output below zero by +0.
func AffineLanes(w, b, x, out []float64, relu bool) {
	n, m := len(x)/DenseLanes, len(b)
	if len(x) != n*DenseLanes || len(w) != m*n || len(out) != m*DenseLanes {
		panic(fmt.Sprintf("linalg: AffineLanes: %d weights, %d biases, %d inputs, %d outputs", len(w), m, len(x), len(out)))
	}
	if simd {
		affineLanes(unsafe.SliceData(w), unsafe.SliceData(b), unsafe.SliceData(x), unsafe.SliceData(out), n, m, relu)
		return
	}
	for o, bo := range b {
		row := w[o*n : (o+1)*n]
		for k := 0; k < DenseLanes; k++ {
			var v float64
			for j, wv := range row {
				v += wv * x[j*DenseLanes+k]
			}
			v += bo
			if relu && v < 0 {
				v = 0
			}
			out[o*DenseLanes+k] = v
		}
	}
}

// AddOuter adds one sample's term to a layer's gradient: for every
// o < m = len(delta) with delta[o] != 0, delta[o]·x is added to row o
// of the m×n row-major weight gradient w (n = len(x)) and delta[o] to
// the bias gradient b[o]. A zero delta leaves its row and bias
// untouched, so a −0 in them keeps its sign.
func AddOuter(w, b, delta, x []float64) {
	n, m := len(x), len(delta)
	if len(w) != m*n || len(b) != m {
		panic(fmt.Sprintf("linalg: AddOuter: %d weights and %d biases for %d×%d", len(w), len(b), m, n))
	}
	if simd {
		addOuter(unsafe.SliceData(w), unsafe.SliceData(b), unsafe.SliceData(delta), unsafe.SliceData(x), n, m)
		return
	}
	for o, dv := range delta {
		if dv == 0 {
			continue
		}
		row := w[o*n : (o+1)*n]
		for j, xv := range x {
			row[j] += dv * xv
		}
		b[o] += dv
	}
}

// BackpropReLU carries a layer's delta back through its weights and the
// ReLU below them: dst is set to Σ delta[o]·w[o·n : (o+1)·n], summed
// from +0 for o = 0…m−1 in order over the nonzero deltas (m = len(delta),
// n = len(dst)), and then every coordinate j whose activation act[j] is
// zero — whose pre-activation was ≤ 0 — is set to +0.
func BackpropReLU(dst, delta, w, act []float64) {
	n, m := len(dst), len(delta)
	if len(w) != m*n || len(act) != n {
		panic(fmt.Sprintf("linalg: BackpropReLU: %d weights and %d activations for %d×%d", len(w), len(act), m, n))
	}
	if simd {
		backpropReLU(unsafe.SliceData(dst), unsafe.SliceData(delta), unsafe.SliceData(w), unsafe.SliceData(act), n, m)
		return
	}
	clear(dst)
	for o, dv := range delta {
		if dv == 0 {
			continue
		}
		row := w[o*n : (o+1)*n]
		for j := range dst {
			dst[j] += dv * row[j]
		}
	}
	for j, a := range act {
		if a == 0 {
			dst[j] = 0
		}
	}
}
