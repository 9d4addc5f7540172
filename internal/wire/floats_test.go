package wire

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"byzshield/internal/linalg"
)

// specialBits are the IEEE-754 patterns a value codec is most likely to
// damage: quiet and signalling NaNs with payloads, both zeros, the
// subnormal extremes, infinities. Truncated to 32 bits they are mostly
// different specials again, which is all the f32 case needs.
var specialBits = []uint64{
	0, 1 << 63, // ±0
	0x7ff8000000000001, 0xfff4000000abcdef, 0x7ff0000000000001, // NaN payloads
	0x7ff0000000000000, 0xfff0000000000000, // ±Inf
	1, 0x000fffffffffffff, 0x8000000000000001, // subnormals
	0x7fc00001, 0xffa12345, 0x00000001, 0x807fffff, 0x7f800000, // the f32 forms
	0x0102030405060708, // every byte distinct: a swapped order shows
}

// randomFloats draws n values as bit patterns, specials mixed in.
func randomFloats[T linalg.Float](rng *rand.Rand, n int) []T {
	out := make([]T, n)
	for i := range out {
		bits := rng.Uint64()
		if rng.Intn(4) == 0 {
			bits = specialBits[rng.Intn(len(specialBits))]
		}
		out[i] = linalg.FromBits[T](bits)
	}
	return out
}

// checkFloatsCodec holds the exported AppendFloats/DecodeFloats (one
// copy on this host if it is little-endian) to the per-element portable
// bodies, on random bit patterns, at lengths 0, 1 and up, with the
// encoded bytes starting at an odd offset so neither side can rely on
// alignment.
func checkFloatsCodec[T linalg.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(int64(linalg.Width[T]())))
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1001} {
		for rep := 0; rep < 20; rep++ {
			src := randomFloats[T](rng, n)
			prefix := []byte{0xEE, 0xDD, 0xCC}[:1+rep%3]
			fast := AppendFloats(append([]byte(nil), prefix...), src)
			ref := appendFloatsPortable(append([]byte(nil), prefix...), src)
			if !bytes.Equal(fast, ref) {
				t.Fatalf("n=%d: AppendFloats differs from the portable body", n)
			}
			if !bytes.Equal(fast[:len(prefix)], prefix) {
				t.Fatalf("n=%d: AppendFloats disturbed the bytes before it", n)
			}
			// Decode from the odd offset, into a destination that is
			// itself a sub-slice at an odd element offset.
			gotBuf, wantBuf := make([]T, n+3), make([]T, n+3)
			DecodeFloats(gotBuf[1:1+n], fast[len(prefix):])
			decodeFloatsPortable(wantBuf[1:1+n], ref[len(prefix):])
			for i := range gotBuf {
				if linalg.Bits(gotBuf[i]) != linalg.Bits(wantBuf[i]) {
					t.Fatalf("n=%d: DecodeFloats[%d] = %#x, portable %#x", n, i-1, linalg.Bits(gotBuf[i]), linalg.Bits(wantBuf[i]))
				}
			}
			for i, v := range src {
				if linalg.Bits(gotBuf[1+i]) != linalg.Bits(v) {
					t.Fatalf("n=%d: value %d did not round-trip: %#x → %#x", n, i, linalg.Bits(v), linalg.Bits(gotBuf[1+i]))
				}
			}
		}
	}
}

func TestFloatsCodecMatchesPortable(t *testing.T) {
	t.Run("f64", checkFloatsCodec[float64])
	t.Run("f32", checkFloatsCodec[float32])
}

// TestDecodeFloatsShortSourcePanics: the bounds contract of the
// per-element body — a source shorter than the destination needs is a
// caller bug and panics instead of decoding a prefix — holds for the
// copying body too.
func TestDecodeFloatsShortSourcePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DecodeFloats accepted a source 1 byte short")
		}
	}()
	DecodeFloats(make([]float64, 2), make([]byte, 15))
}

var codecSink []byte

func benchFloatsCodec[T linalg.Float](b *testing.B, n int) {
	src := make([]T, n)
	for i := range src {
		src[i] = T(math.Sin(float64(i)))
	}
	dst := make([]T, n)
	buf := AppendFloats(nil, src)
	b.SetBytes(int64(2 * len(buf))) // one encode + one decode per iteration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendFloats(buf[:0], src)
		DecodeFloats(dst, buf)
	}
	codecSink = buf
}

// BenchmarkFloatsCodec is the raw value codec at both widths and at the
// two sizes the repo benchmark exercises (a 2k-parameter fleet frame, a
// 100k-parameter wide model). MB/s here against a memcpy of the same
// bytes is the distance from the copy-bound floor.
func BenchmarkFloatsCodec(b *testing.B) {
	for _, n := range []int{2_000, 100_000} {
		b.Run(fmt.Sprintf("f64/%d", n), func(b *testing.B) { benchFloatsCodec[float64](b, n) })
		b.Run(fmt.Sprintf("f32/%d", n), func(b *testing.B) { benchFloatsCodec[float32](b, n) })
	}
}
