package linalg

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestRankNetworkComparatorCounts pins the pruned median networks at
// the winner counts the median workloads reduce.
func TestRankNetworkComparatorCounts(t *testing.T) {
	for _, c := range []struct{ n, want int }{{20, 84}, {25, 113}, {49, 319}} {
		if got := len(rankNetwork(c.n, (c.n-1)/2, c.n/2+1)); got != c.want {
			t.Errorf("median network of %d: %d comparators, want %d", c.n, got, c.want)
		}
	}
}

// TestRankNetworkSelects checks that every pruned network leaves wires
// [lo, hi) holding what a sort puts there: exhaustively over 0-1 inputs
// up to 12 wires (the 0-1 principle holds for selection networks too),
// and over random inputs with ties up to 64.
func TestRankNetworkSelects(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 1; n <= 64; n++ {
		for _, r := range [][2]int{{(n - 1) / 2, n/2 + 1}, {0, n}, {n / 3, n - n/3}} {
			lo, hi := r[0], r[1]
			net := rankNetwork(n, lo, hi)
			for _, c := range net {
				if c.i < 0 || c.i >= c.j || int(c.j) >= n {
					t.Fatalf("n=%d [%d,%d): comparator %v", n, lo, hi, c)
				}
			}
			xs := make([]int64, n)
			check := func() {
				want := slices.Clone(xs)
				slices.Sort(want)
				for _, c := range net {
					if xs[c.j] < xs[c.i] {
						xs[c.i], xs[c.j] = xs[c.j], xs[c.i]
					}
				}
				if !slices.Equal(xs[lo:hi], want[lo:hi]) {
					t.Fatalf("n=%d [%d,%d): got %v, want %v", n, lo, hi, xs[lo:hi], want[lo:hi])
				}
			}
			if n <= 12 {
				for mask := 0; mask < 1<<n; mask++ {
					for w := range xs {
						xs[w] = int64(mask >> w & 1)
					}
					check()
				}
			}
			for trial := 0; trial < 50; trial++ {
				for w := range xs {
					xs[w] = rng.Int63n(int64(n/2 + 1))
				}
				check()
			}
		}
	}
}

// TestRankNetworkConcurrent has several goroutines ask for the same
// uncached networks at once, as the engine's pooled chunks do on their
// first round; run it under -race.
func TestRankNetworkConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 65; n <= 96; n++ {
				if got, want := rankNetwork(n, n/2, n/2+1), buildRankNetwork(n, n/2, n/2+1); !slices.Equal(got, want) {
					t.Errorf("n=%d: cached network differs from a fresh build", n)
				}
			}
		}()
	}
	wg.Wait()
}

// TestSortKeyOrder checks that the tile's integer keys order floats
// numerically with -0 below +0 and NaNs outermost, and invert exactly,
// at both widths.
func TestSortKeyOrder(t *testing.T) {
	negNaN := math.Copysign(math.NaN(), -1)
	ordered := []float64{negNaN, math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 1, math.MaxFloat64, math.Inf(1), math.NaN()}
	t.Run("f64", func(t *testing.T) { testSortKeyOrder(t, ordered) })
	t.Run("f32", func(t *testing.T) {
		xs := make([]float32, len(ordered))
		for i, v := range ordered {
			xs[i] = float32(v)
		}
		xs[0], xs[len(xs)-1] = math.Float32frombits(0xffc0_0000), math.Float32frombits(0x7fc0_0000)
		xs[2], xs[len(xs)-3] = -math.MaxFloat32, math.MaxFloat32
		xs[4], xs[len(xs)-5] = -math.SmallestNonzeroFloat32, math.SmallestNonzeroFloat32
		testSortKeyOrder(t, xs)
	})
}

func testSortKeyOrder[T Float](t *testing.T, ordered []T) {
	if Width[T]() == 4 {
		testSortKeyOrderOf[T, int32](t, ordered)
	} else {
		testSortKeyOrderOf[T, int64](t, ordered)
	}
}

func testSortKeyOrderOf[T Float, K key](t *testing.T, ordered []T) {
	for i, v := range ordered {
		k := sortKey(rawKey[T, K](v))
		if back := keyValue[T](k); Bits(back) != Bits(v) {
			t.Errorf("%v: key %#x inverts to %v", v, k, back)
		}
		if i > 0 {
			if pk := sortKey(rawKey[T, K](ordered[i-1])); pk >= k {
				t.Errorf("key(%v) = %#x does not order below key(%v) = %#x", ordered[i-1], pk, v, k)
			}
		}
	}
	// sortLanes spots a -0 in a tile by its key alone.
	if neg, pos := sortKey(rawKey[T, K](T(math.Copysign(0, -1)))), sortKey(rawKey[T, K](T(0))); neg != -1 || pos != 0 {
		t.Errorf("keys of -0 and +0 are %d and %d, want -1 and 0", neg, pos)
	}
}
