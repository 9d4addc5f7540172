//go:build !amd64

package linalg

// Only amd64 has an assembly tile body; every other architecture runs
// the portable Go one.

func simdSupported() bool { return false }

func vbmiSupported() bool { return false }

func sortTileSIMD[T Float, K key](net []comparator, tile []K, vs [][]T, b0 int) (nan, negZero bool) {
	panic("linalg: no SIMD tile body on this architecture")
}
