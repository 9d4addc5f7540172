package linalg

// momentBlocks is the AVX-512F body of MeanRange and MomentsInto
// (moments.go) over blocks·momentBlock coordinates from lo: it sets mu
// to the mean of the n ≥ 1 rows and, unless sigma is nil, sigma to
// their population standard deviation, inv being 1/n. The callers have
// checked that every row, mu and sigma cover the blocks.
//
//go:noescape
func momentBlocks(mu, sigma *float64, rows *[]float64, n, lo, blocks int, inv float64)
