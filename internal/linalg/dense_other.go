//go:build !amd64

package linalg

// Only amd64 has assembly dense kernels; simd is always false here, so
// these are never called.

func affineLanes(w, b, x, out *float64, n, m int, relu bool) {
	panic("linalg: no SIMD dense kernels on this architecture")
}

func addOuter(w, b, delta, x *float64, n, m int) {
	panic("linalg: no SIMD dense kernels on this architecture")
}

func backpropReLU(dst, delta, w, act *float64, n, m int) {
	panic("linalg: no SIMD dense kernels on this architecture")
}
