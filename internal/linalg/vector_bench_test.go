package linalg

import (
	"math/rand"
	"sort"
	"testing"
)

// Kernel micro-benchmarks at the two precision widths and two dims (the
// softmax config's ~1k and the large-model 100k). They are layer checks
// to run while working on a kernel — the CI bench-smoke job runs them
// as a liveness check — not the record: the repository's numbers are
// bench/'s linalg.* rows (bash bench/run.sh).

const (
	benchSmallDim = 1_000
	benchLargeDim = 100_000
	benchRows     = 15 // one vote-winner per file at f=15
)

func benchVecs64(dim int) [][]float64 {
	rng := rand.New(rand.NewSource(1))
	vs := make([][]float64, benchRows)
	for i := range vs {
		vs[i] = make([]float64, dim)
		for j := range vs[i] {
			vs[i][j] = rng.NormFloat64()
		}
	}
	return vs
}

func benchVecs32(dim int) [][]float32 {
	vs64 := benchVecs64(dim)
	vs := make([][]float32, len(vs64))
	for i := range vs {
		vs[i] = make([]float32, dim)
		for j := range vs[i] {
			vs[i][j] = float32(vs64[i][j])
		}
	}
	return vs
}

func benchMeanVecInto[T Float](b *testing.B, vs [][]T) {
	out := make([]T, len(vs[0]))
	b.SetBytes(int64(len(vs) * len(vs[0]) * int(unsafeSizeof[T]())))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MeanVecInto(out, vs)
	}
}

// unsafeSizeof reports the element width without importing unsafe.
func unsafeSizeof[T Float]() uintptr {
	var t T
	switch any(t).(type) {
	case float32:
		return 4
	default:
		return 8
	}
}

func BenchmarkMeanVecInto(b *testing.B) {
	b.Run("f64-1k", func(b *testing.B) { benchMeanVecInto(b, benchVecs64(benchSmallDim)) })
	b.Run("f64-100k", func(b *testing.B) { benchMeanVecInto(b, benchVecs64(benchLargeDim)) })
	b.Run("f32-1k", func(b *testing.B) { benchMeanVecInto(b, benchVecs32(benchSmallDim)) })
	b.Run("f32-100k", func(b *testing.B) { benchMeanVecInto(b, benchVecs32(benchLargeDim)) })
}

func benchStdVecInto[T Float](b *testing.B, vs [][]T) {
	mean := MeanVecInto(make([]T, len(vs[0])), vs)
	out := make([]T, len(vs[0]))
	b.SetBytes(int64(len(vs) * len(vs[0]) * int(unsafeSizeof[T]())))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		StdVecInto(out, mean, vs)
	}
}

func BenchmarkStdVecInto(b *testing.B) {
	b.Run("f64-1k", func(b *testing.B) { benchStdVecInto(b, benchVecs64(benchSmallDim)) })
	b.Run("f64-100k", func(b *testing.B) { benchStdVecInto(b, benchVecs64(benchLargeDim)) })
	b.Run("f32-1k", func(b *testing.B) { benchStdVecInto(b, benchVecs32(benchSmallDim)) })
	b.Run("f32-100k", func(b *testing.B) { benchStdVecInto(b, benchVecs32(benchLargeDim)) })
}

// benchMedian runs the chunked-aggregation access pattern: gather each
// coordinate's column, then take its median — selection-based.
func benchMedian[T Float](b *testing.B, vs [][]T) {
	dim := len(vs[0])
	col := make([]T, len(vs))
	out := make([]T, dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < dim; c++ {
			for j, v := range vs {
				col[j] = v[c]
			}
			out[c] = MedianSelect(col)
		}
	}
}

func BenchmarkMedian(b *testing.B) {
	b.Run("f64-1k", func(b *testing.B) { benchMedian(b, benchVecs64(benchSmallDim)) })
	b.Run("f64-100k", func(b *testing.B) { benchMedian(b, benchVecs64(benchLargeDim)) })
	b.Run("f32-1k", func(b *testing.B) { benchMedian(b, benchVecs32(benchSmallDim)) })
	b.Run("f32-100k", func(b *testing.B) { benchMedian(b, benchVecs32(benchLargeDim)) })
}

// BenchmarkMedianSortBaseline is the pre-quickselect kernel (full
// per-coordinate sort.Float64s) kept as the comparison baseline for
// BenchmarkMedian.
func BenchmarkMedianSortBaseline(b *testing.B) {
	vs := benchVecs64(benchSmallDim)
	dim := len(vs[0])
	col := make([]float64, len(vs))
	out := make([]float64, dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < dim; c++ {
			for j, v := range vs {
				col[j] = v[c]
			}
			sort.Float64s(col)
			if n := len(col); n%2 == 1 {
				out[c] = col[n/2]
			} else {
				out[c] = (col[n/2-1] + col[n/2]) / 2
			}
		}
	}
}
