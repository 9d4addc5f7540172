package linalg

// simd selects the AVX-512F assembly bodies of the kernels that have
// one: the median network's full tiles (sortTileSIMD) and the dense
// layer kernels (AffineLanes, AddOuter, BackpropReLU). It is set
// once at init from the CPU; other architectures and CPUs without
// AVX-512F run the portable Go bodies, which are also what the tests
// hold the assembly to.
var simd = simdSupported()

// SIMD reports whether the kernels run their assembly bodies.
func SIMD() bool { return simd }

// SetSIMD switches every kernel to its assembly body (on, where the CPU
// runs it) or to its portable body, and returns the previous setting.
// It is for tests that run both bodies over the same inputs, and must
// not race with a running kernel.
func SetSIMD(on bool) (was bool) {
	was, simd = simd, on && simdSupported()
	return was
}
