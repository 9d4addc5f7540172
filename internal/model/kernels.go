package model

import "byzshield/internal/linalg"

// The dense-layer kernels Softmax and MLP share.
//
// A dot product summed as one chain, v += w[j]·x[j], runs at the latency
// of a floating-point add — about four cycles a coordinate on x86 — and
// leaves the adder ports idle most of the time. affine and affine2 keep
// several chains in flight at once: four rows per pass over x, and with
// two samples four rows × two samples, each in its own accumulator.
// Every output is still summed j = 0…n−1 in order from zero and then
// gets its bias added, so its bits are the one-chain loop's.

// affine sets out[o] = Σ_j w[o·n+j]·x[j] + b[o] for every o < len(out),
// where n = len(x) and w is row-major with n columns.
func affine[T linalg.Float](w, b, x, out []T) {
	n := len(x)
	o := 0
	for ; o+4 <= len(out); o += 4 {
		r0 := w[o*n:][:n]
		r1 := w[(o+1)*n:][:n]
		r2 := w[(o+2)*n:][:n]
		r3 := w[(o+3)*n:][:n]
		var v0, v1, v2, v3 T
		for j, xv := range x {
			v0 += r0[j] * xv
			v1 += r1[j] * xv
			v2 += r2[j] * xv
			v3 += r3[j] * xv
		}
		out[o] = v0 + b[o]
		out[o+1] = v1 + b[o+1]
		out[o+2] = v2 + b[o+2]
		out[o+3] = v3 + b[o+3]
	}
	for ; o < len(out); o++ {
		r := w[o*n:][:n]
		var v T
		for j, xv := range x {
			v += r[j] * xv
		}
		out[o] = v + b[o]
	}
}

// affine2 is affine over two samples in one pass over w:
// out0 = w·x0 + b and out1 = w·x1 + b. x1 must be as long as x0 and
// out1 as long as out0.
func affine2[T linalg.Float](w, b, x0, x1, out0, out1 []T) {
	n := len(x0)
	x1 = x1[:n]
	out1 = out1[:len(out0)]
	o := 0
	for ; o+4 <= len(out0); o += 4 {
		r0 := w[o*n:][:n]
		r1 := w[(o+1)*n:][:n]
		r2 := w[(o+2)*n:][:n]
		r3 := w[(o+3)*n:][:n]
		var u0, u1, u2, u3, v0, v1, v2, v3 T
		for j, xu := range x0 {
			xv := x1[j]
			u0 += r0[j] * xu
			v0 += r0[j] * xv
			u1 += r1[j] * xu
			v1 += r1[j] * xv
			u2 += r2[j] * xu
			v2 += r2[j] * xv
			u3 += r3[j] * xu
			v3 += r3[j] * xv
		}
		out0[o], out1[o] = u0+b[o], v0+b[o]
		out0[o+1], out1[o+1] = u1+b[o+1], v1+b[o+1]
		out0[o+2], out1[o+2] = u2+b[o+2], v2+b[o+2]
		out0[o+3], out1[o+3] = u3+b[o+3], v3+b[o+3]
	}
	for ; o < len(out0); o++ {
		r := w[o*n:][:n]
		var u, v T
		for j, xu := range x0 {
			u += r[j] * xu
			v += r[j] * x1[j]
		}
		out0[o], out1[o] = u+b[o], v+b[o]
	}
}
