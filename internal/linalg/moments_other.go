//go:build !amd64

package linalg

// Only amd64 has an assembly moment kernel; simd is always false here,
// so this is never called.
func momentBlocks(mu, sigma *float64, rows *[]float64, n, lo, blocks int, inv float64) {
	panic("linalg: no SIMD moment kernel on this architecture")
}
