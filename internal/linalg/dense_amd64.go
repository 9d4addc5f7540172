package linalg

// The AVX-512F bodies of the dense-layer kernels (dense.go). The callers
// have checked every length, so the pointers cover the n·m weights, the
// m biases and deltas, and the n- or m-element rows and tiles.

//go:noescape
func affineLanes(w, b, x, out *float64, n, m int, relu bool)

//go:noescape
func addOuter(w, b, delta, x *float64, n, m int)

//go:noescape
func backpropReLU(dst, delta, w, act *float64, n, m int)
