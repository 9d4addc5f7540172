package aggregate

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"byzshield/internal/linalg"
)

// column gathers coordinate i of every row in row order: the input of
// the per-column quickselect references the chunk kernels must match
// bit for bit.
func column[T linalg.Float](grads [][]T, i int) []T {
	return linalg.GatherCol(make([]T, len(grads)), grads, i)
}

// checkChunkBits runs rule's chunk kernel at width T over [lo, hi) of
// grads and compares every output bit pattern against ref, and every
// coordinate outside the range against its untouched sentinel.
func checkChunkBits[T linalg.Float](t testing.TB, rule Aggregator, grads [][]T, lo, hi int, ref func(i int) T) {
	t.Helper()
	b, err := BindOf[T](rule)
	if err != nil {
		t.Fatal(err)
	}
	sentinel := linalg.FromBits[T](0x5a5a5a5a)
	out := make([]T, len(grads[0]))
	for i := range out {
		out[i] = sentinel
	}
	if err := b.Chunk(grads, out, lo, hi); err != nil {
		t.Fatal(err)
	}
	for i, got := range out {
		want := sentinel
		if i >= lo && i < hi {
			want = ref(i)
		}
		if linalg.Bits(got) != linalg.Bits(want) {
			t.Fatalf("%s f=%d [%d,%d) coord %d: got %v (%#x), want %v (%#x)",
				rule.Name(), len(grads), lo, hi, i, got, linalg.Bits(got), want, linalg.Bits(want))
		}
	}
}

// chunkTestRows draws f rows of dimension d whose columns mix ties, ±0
// and ±Inf into Gaussian values. The trouble is chosen per block of
// linalg.Lanes columns, and only one block kind carries NaN payloads,
// so most tiles stay on the network path whichever range is reduced.
func chunkTestRows[T linalg.Float](rng *rand.Rand, f, d int) [][]T {
	negZero, inf := math.Copysign(0, -1), math.Inf(1)
	grads := make([][]T, f)
	for j := range grads {
		grads[j] = make([]T, d)
	}
	kind := 0
	for i := 0; i < d; i++ {
		if i%linalg.Lanes == 0 {
			kind = i / linalg.Lanes % 6
		}
		trouble := rng.Intn(2) == 0 // half the columns of a block
		for j := range grads {
			v := rng.NormFloat64()
			switch {
			case !trouble:
			case kind == 1: // ties
				v = float64(rng.Intn(3) - 1)
			case kind == 2: // mostly ±0, so most medians are zero
				if rng.Intn(4) != 0 {
					v = [2]float64{0, negZero}[rng.Intn(2)]
				}
			case kind == 3 && rng.Intn(3) == 0: // ±Inf
				v = [2]float64{inf, -inf}[rng.Intn(2)]
			case kind == 4: // ties, ±0 and ±Inf together
				v = [6]float64{0, negZero, 0, 1, inf, -inf}[rng.Intn(6)]
			case kind == 5 && rng.Intn(8) == 0: // NaN payloads
				v = math.Float64frombits(0x7ff8_0000_dead_beef | uint64(rng.Intn(2))<<63)
			}
			grads[j][i] = T(v)
		}
	}
	return grads
}

// TestChunkKernelsMatchSelect drives Median and TrimmedMean's chunk
// kernels directly over ranges that start off tile boundaries and end
// inside, on and past them, at both widths.
func TestChunkKernelsMatchSelect(t *testing.T) {
	t.Run("f64", func(t *testing.T) { testChunkKernels[float64](t) })
	t.Run("f32", func(t *testing.T) { testChunkKernels[float32](t) })
}

func testChunkKernels[T linalg.Float](t *testing.T) {
	const L = linalg.Lanes
	rng := rand.New(rand.NewSource(34))
	ranges := [][2]int{{0, 0}, {5, 5}, {3, 4}, {7, 7 + L - 1}, {0, L}, {L, 2 * L}, {11, 11 + L + 1}, {1, 3*L + 17}, {0, 12 * L}, {L + 9, 12*L + 20}}
	const d = 12*L + 20
	for _, f := range []int{1, 2, 3, 4, 20, 25, 49} {
		grads := chunkTestRows[T](rng, f, d)
		for _, r := range ranges {
			lo, hi := r[0], r[1]
			checkChunkBits(t, Median{}, grads, lo, hi, func(i int) T { return linalg.MedianSelect(column(grads, i)) })
			for _, trim := range []int{0, 1, (f - 1) / 2} {
				if 2*trim >= f {
					continue
				}
				checkChunkBits(t, TrimmedMean{Trim: trim}, grads, lo, hi, func(i int) T { return linalg.TrimmedMeanSelect(column(grads, i), trim) })
			}
		}
	}
}

// FuzzMedianChunk decodes arbitrary bytes into f rows of float bits at
// both widths and compares the median and trimmed-mean chunk kernels
// against the per-column reference over a range inside the rows.
func FuzzMedianChunk(f *testing.F) {
	f.Add(uint8(25), uint8(0), uint8(3), []byte("\x00\x00\x00\x00\x00\x00\x00\x80\x00\x00\x00\x00\x00\x00\xf8\x7f"))
	f.Add(uint8(4), uint8(1), uint8(0), make([]byte, 8*4*70))
	f.Fuzz(func(t *testing.T, rows, trim, off uint8, data []byte) {
		n := 1 + int(rows)%49
		fuzzChunk[float64](t, n, int(trim), int(off), data)
		fuzzChunk[float32](t, n, int(trim), int(off), data)
	})
}

func fuzzChunk[T linalg.Float](t *testing.T, n, trim, off int, data []byte) {
	w := linalg.Width[T]()
	d := len(data) / (w * n)
	if d == 0 {
		return
	}
	grads := make([][]T, n)
	for j := range grads {
		grads[j] = make([]T, d)
		for i := range grads[j] {
			var bits uint64
			for k, c := range data[(j*d+i)*w : (j*d+i+1)*w] {
				bits |= uint64(c) << (8 * k)
			}
			grads[j][i] = linalg.FromBits[T](bits)
		}
	}
	lo := off % d
	checkChunkBits(t, Median{}, grads, lo, d, func(i int) T { return linalg.MedianSelect(column(grads, i)) })
	trim %= (n + 1) / 2
	checkChunkBits(t, TrimmedMean{Trim: trim}, grads, lo, d, func(i int) T { return linalg.TrimmedMeanSelect(column(grads, i), trim) })
}

// BenchmarkMedianChunk times the Median and TrimmedMean chunk kernels
// over a whole 100 008-coordinate model of Gaussian columns — what a
// vote winner's gradient looks like, no duplicate values for
// quickselect's equal run to exit early on — at the median workloads'
// winner counts, trims from none to one short of the median, and both
// widths. BenchmarkMedianChunkSelectBaseline is the per-column
// quickselect kernel (MedianSelect, TrimmedMeanSelect) on the same rows.
func BenchmarkMedianChunk(b *testing.B) { benchChunkRules(b, false) }

func BenchmarkMedianChunkSelectBaseline(b *testing.B) { benchChunkRules(b, true) }

const benchChunkDim = 100_008

// benchChunkRules runs every rule at every winner count and width; a
// trim of -1 stands for Median.
func benchChunkRules(b *testing.B, perColumn bool) {
	for _, f := range []int{20, 25, 49} {
		for _, trim := range []int{-1, 0, 1, f / 4, (f-1)/2 - 1} {
			name := fmt.Sprintf("median/f%d", f)
			if trim >= 0 {
				name = fmt.Sprintf("trim%d/f%d", trim, f)
			}
			b.Run(name+"-f64", func(b *testing.B) { benchChunk[float64](b, f, trim, perColumn) })
			b.Run(name+"-f32", func(b *testing.B) { benchChunk[float32](b, f, trim, perColumn) })
		}
	}
}

func benchChunk[T linalg.Float](b *testing.B, f, trim int, perColumn bool) {
	rng := rand.New(rand.NewSource(1))
	grads := make([][]T, f)
	for j := range grads {
		grads[j] = make([]T, benchChunkDim)
		for i := range grads[j] {
			grads[j][i] = T(rng.NormFloat64())
		}
	}
	out := make([]T, benchChunkDim)
	rule := Aggregator(Median{})
	if trim >= 0 {
		rule = TrimmedMean{Trim: trim}
	}
	bound, err := BindOf[T](rule)
	if err != nil {
		b.Fatal(err)
	}
	col := make([]T, f)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if !perColumn {
			_ = bound.Chunk(grads, out, 0, len(out))
			continue
		}
		for i := range out {
			if trim < 0 {
				out[i] = linalg.MedianSelect(linalg.GatherCol(col, grads, i))
			} else {
				out[i] = linalg.TrimmedMeanSelect(linalg.GatherCol(col, grads, i), trim)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchChunkDim), "ns/coord")
}
