package linalg

import (
	"fmt"
	"math/rand"
	"testing"
)

// equalBitsRef is EqualBits one element at a time: the definition the
// memequal body is held to.
func equalBitsRef[T Float](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if Bits(a[i]) != Bits(b[i]) {
			return false
		}
	}
	return true
}

func checkEqualBits[T Float](t *testing.T) {
	specials := []uint64{0, 1 << 63, 1 << 31, 0x7ff8000000000001, 0x7ff8000000000002,
		0x7fc00001, 0x7fc00002, 1, 0x8000000000000001, 0x80000001}
	rng := rand.New(rand.NewSource(int64(Width[T]())))
	draw := func() T {
		if rng.Intn(3) == 0 {
			return FromBits[T](specials[rng.Intn(len(specials))])
		}
		return FromBits[T](rng.Uint64())
	}
	for _, n := range []int{0, 1, 2, 5, 33, 1000} {
		for rep := 0; rep < 50; rep++ {
			// Sub-slices at an odd element offset: nothing may assume the
			// vectors start on a 16-byte boundary.
			a := make([]T, n+1)[1:]
			for i := range a {
				a[i] = draw()
			}
			b := append(make([]T, 1, n+1), a...)[1:]
			if !EqualBits(a, b) || !equalBitsRef(a, b) {
				t.Fatalf("n=%d: a copy compares unequal", n)
			}
			if n == 0 {
				continue
			}
			// One element changed — possibly to a value == says is equal
			// (±0) or to another NaN — must be seen, wherever it is.
			i := rng.Intn(n)
			b[i] = draw()
			if got, want := EqualBits(a, b), equalBitsRef(a, b); got != want {
				t.Fatalf("n=%d: EqualBits=%v, per-element=%v with element %d %#x vs %#x",
					n, got, want, i, Bits(a[i]), Bits(b[i]))
			}
			if EqualBits(a, b[:n-1]) {
				t.Fatalf("n=%d: a shorter vector compares equal", n)
			}
		}
	}
	nan1, nan2 := FromBits[T](0x7ff8000000000001), FromBits[T](0x7ff8000000000001)
	if Width[T]() == 4 {
		nan1, nan2 = FromBits[T](0x7fc00001), FromBits[T](0x7fc00001)
	}
	if !EqualBits([]T{nan1}, []T{nan2}) {
		t.Error("identical NaN patterns compare unequal")
	}
	negZero := FromBits[T](1 << (8*uint(Width[T]()) - 1))
	if EqualBits([]T{0}, []T{negZero}) {
		t.Error("+0 compares equal to -0")
	}
}

func TestEqualBitsMatchesPerElement(t *testing.T) {
	t.Run("f64", checkEqualBits[float64])
	t.Run("f32", checkEqualBits[float32])
}

var equalSink bool

func benchEqualBits[T Float](b *testing.B, n int) {
	x, y := make([]T, n), make([]T, n)
	for i := range x {
		x[i] = T(i) * 0.5
		y[i] = x[i]
	}
	b.SetBytes(int64(2 * n * Width[T]()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		equalSink = EqualBits(x, y)
	}
}

// BenchmarkEqualBits is the vote's comparison on two equal vectors (the
// honest case, which reads both to the end).
func BenchmarkEqualBits(b *testing.B) {
	for _, n := range []int{2_000, 100_000} {
		b.Run(fmt.Sprintf("f64/%d", n), func(b *testing.B) { benchEqualBits[float64](b, n) })
		b.Run(fmt.Sprintf("f32/%d", n), func(b *testing.B) { benchEqualBits[float32](b, n) })
	}
}
