package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// momentsReference returns momentsReferenceInto's moments in new
// vectors.
func momentsReference(rows [][]float64) (mu, sigma []float64) {
	mu, sigma = make([]float64, len(rows[0])), make([]float64, len(rows[0]))
	momentsReferenceInto(mu, sigma, rows)
	return mu, sigma
}

// momentsReferenceInto is the moments' definition, one coordinate at a
// time: the rows summed in order from +0 and scaled by 1/n, then the
// squared deviations from that mean summed the same way, scaled and
// square-rooted.
func momentsReferenceInto(mu, sigma []float64, rows [][]float64) {
	inv := 1 / float64(len(rows))
	for i := range mu {
		var s float64
		for _, v := range rows {
			s += v[i]
		}
		m := s * inv
		var q float64
		for _, v := range rows {
			e := v[i] - m
			q += e * e
		}
		mu[i], sigma[i] = m, math.Sqrt(q*inv)
	}
}

// checkMomentBits fails at the first element where got and want differ
// in bits, unless both are NaN (DESIGN §9.7: Go leaves a NaN result's
// payload unspecified).
func checkMomentBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i, w := range want {
		if g := got[i]; math.Float64bits(g) != math.Float64bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: [%d] = %#x (%v), want %#x (%v)", what, i, math.Float64bits(g), g, math.Float64bits(w), w)
		}
	}
}

// momentKind is one way of filling the moments test's rows: draw gives
// row r's coordinate i.
type momentKind struct {
	name string
	draw func(rng *rand.Rand, n, r, i int) float64
}

// momentKinds are the row sets the moments test runs: Gaussians;
// Gaussians with ±0 in the first, a middle and the last row of every
// column and in whole columns; all −0; NaNs of both signs, ±Inf and
// subnormals sprinkled into Gaussians; subnormals alone; columns of one
// repeated value; and huge values whose squared deviations (and, with
// one sign, sums) overflow.
var momentKinds = func() []momentKind {
	negZero := math.Copysign(0, -1)
	specials := []float64{
		math.NaN(), math.Copysign(math.NaN(), -1),
		math.Float64frombits(0x7ff8_dead_beef_0000), math.Float64frombits(0xfffc_0000_0000_0001),
		math.Inf(1), math.Inf(-1), 0, negZero,
		math.Float64frombits(1), math.Float64frombits(1 | 1<<63), // ± smallest subnormal
		math.Float64frombits(1<<52 - 1), 0x1p-1060,
	}
	signedZero := func(rng *rand.Rand) float64 { return math.Copysign(0, float64(rng.Intn(2)*2-1)) }
	return []momentKind{
		{"gaussian", func(rng *rand.Rand, _, _, _ int) float64 { return rng.NormFloat64() }},
		{"signed-zeros", func(rng *rand.Rand, n, r, i int) float64 {
			if r == 0 || r == n/2 || r == n-1 || i%3 == 0 {
				return signedZero(rng)
			}
			return rng.NormFloat64()
		}},
		{"negative-zero", func(*rand.Rand, int, int, int) float64 { return negZero }},
		{"specials", func(rng *rand.Rand, _, _, _ int) float64 {
			if rng.Intn(8) == 0 {
				return specials[rng.Intn(len(specials))]
			}
			return rng.NormFloat64()
		}},
		{"subnormals", func(rng *rand.Rand, _, _, _ int) float64 {
			return math.Float64frombits(rng.Uint64()&(1<<52-1) | uint64(rng.Intn(2))<<63)
		}},
		{"constant", func(_ *rand.Rand, _, _, i int) float64 { return float64(i%7) - 3.25 }},
		{"huge", func(rng *rand.Rand, _, _, i int) float64 {
			sign := 1.0
			if i%2 == 0 && rng.Intn(2) == 0 {
				sign = -1
			}
			return sign * 0x1p1020 * (1 + rng.Float64())
		}},
	}
}()

// fillRows draws n rows of d coordinates of one kind.
func fillRows(rng *rand.Rand, k momentKind, n, d int) [][]float64 {
	rows := make([][]float64, n)
	for r := range rows {
		rows[r] = make([]float64, d)
		for i := range rows[r] {
			rows[r][i] = k.draw(rng, n, r, i)
		}
	}
	return rows
}

// TestMomentsMatchPortable holds MomentsInto and MeanRange to
// momentsReference bit for bit (a NaN matching any NaN), and MomentsInto
// to MeanVecInto followed by StdVecInto, at n ∈ {1, 2, 3, 25, 49} rows
// and d = 0…257 (every 8- and 32-coordinate tail), 9 610 and 100 008
// coordinates (the large shapes on the specials, and 9 610 on the huge
// values too). MeanRange
// runs over ranges that start and end off a block boundary, and neither
// kernel may write past its range. /simd runs the AVX-512F body and
// skips on a CPU without it; /generic runs the portable loops.
func TestMomentsMatchPortable(t *testing.T) {
	if simdSupported() {
		t.Log("moments dispatch: AVX-512F assembly body")
	} else {
		t.Log("moments dispatch: portable Go body (no AVX-512F): the /simd leg skips")
	}
	for _, leg := range []struct {
		name string
		simd bool
	}{{"simd", true}, {"generic", false}} {
		t.Run(leg.name, func(t *testing.T) {
			if leg.simd && !simdSupported() {
				t.Skip("no AVX-512F: the moments run their portable body")
			}
			defer SetSIMD(SetSIMD(leg.simd))
			rng := rand.New(rand.NewSource(49))
			for _, n := range []int{1, 2, 3, 25, 49} {
				for d := 0; d <= 257; d++ {
					for _, k := range momentKinds {
						checkMoments(t, fmt.Sprintf("n=%d d=%d %s", n, d, k.name), fillRows(rng, k, n, d), rng)
					}
				}
				for _, d := range []int{9_610, 100_008} {
					for _, k := range momentKinds {
						if k.name == "specials" || (d < 100_000 && k.name == "huge") {
							checkMoments(t, fmt.Sprintf("n=%d d=%d %s", n, d, k.name), fillRows(rng, k, n, d), rng)
						}
					}
				}
			}
		})
	}
}

// checkMoments runs MomentsInto, MeanVecInto + StdVecInto and MeanRange
// over one row set and compares each with momentsReference.
func checkMoments(t *testing.T, name string, rows [][]float64, rng *rand.Rand) {
	t.Helper()
	d := len(rows[0])
	wantMu, wantSigma := momentsReference(rows)
	// Outputs run one block past d, filled with a sentinel that must
	// survive.
	const sentinel = -12345.5
	out := func() []float64 {
		v := make([]float64, d+momentBlock)
		for i := range v {
			v[i] = sentinel
		}
		return v
	}
	untouched := func(what string, v []float64, lo, hi int) {
		t.Helper()
		for i, x := range v {
			if (i < lo || i >= hi) && x != sentinel {
				t.Fatalf("%s: %s wrote [%d] outside [%d,%d)", name, what, i, lo, hi)
			}
		}
	}
	mu, sigma := out(), out()
	MomentsInto(mu, sigma, rows)
	checkMomentBits(t, name+" MomentsInto mu", mu, wantMu)
	checkMomentBits(t, name+" MomentsInto sigma", sigma, wantSigma)
	untouched("MomentsInto mu", mu, 0, d)
	untouched("MomentsInto sigma", sigma, 0, d)

	mean := MeanVecInto(make([]float64, d), rows)
	checkMomentBits(t, name+" MeanVecInto", mean, wantMu)
	checkMomentBits(t, name+" StdVecInto", StdVecInto(make([]float64, d), mean, rows), wantSigma)

	for _, lo := range []int{7, d / 3} {
		if lo > d {
			continue
		}
		for _, hi := range []int{d, lo + rng.Intn(d-lo+1)} {
			part := out()
			MeanRange(part, rows, lo, hi)
			checkMomentBits(t, fmt.Sprintf("%s MeanRange [%d,%d)", name, lo, hi), part[lo:hi], wantMu[lo:hi])
			untouched("MeanRange", part, lo, hi)
		}
	}
}

// TestMeanRangeShapes pins MeanRange's argument checks at both
// dispatches: a range outside the output or past a row panics.
func TestMeanRangeShapes(t *testing.T) {
	defer SetSIMD(SetSIMD(true))
	rows := [][]float64{make([]float64, 40), make([]float64, 39)}
	for _, on := range []bool{true, false} {
		SetSIMD(on)
		for _, c := range []struct{ out, lo, hi int }{{40, 0, 40}, {40, -1, 10}, {40, 10, 9}, {39, 0, 40}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("simd=%v: MeanRange(%d outputs, [%d,%d)) with a 39-wide row did not panic", on, c.out, c.lo, c.hi)
					}
				}()
				MeanRange(make([]float64, c.out), rows, c.lo, c.hi)
			}()
		}
	}
}

// FuzzMoments runs MomentsInto and MeanRange on rows built from the
// input's bytes (repeated until every row holds a full block and a tail)
// under both dispatches and compares them with momentsReference.
func FuzzMoments(f *testing.F) {
	f.Add(uint8(25), uint8(3), []byte("\x00\x00\x00\x00\x00\x00\x00\x80\x00\x00\x00\x00\x00\x00\xf8\x7f"))
	f.Add(uint8(2), uint8(0), []byte("\x01\x00\x00\x00\x00\x00\xf0\x7f\x00\x00\x00\x00\x00\x00\xf0\xff"))
	f.Add(uint8(2), uint8(40), make([]byte, 8*3*80))
	f.Fuzz(func(t *testing.T, rows, lo uint8, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(rows)%49
		d := max(len(data)/(8*n), momentBlock+momentBlock/2)
		vs := make([][]float64, n)
		for r := range vs {
			vs[r] = make([]float64, d)
			for i := range vs[r] {
				var bits uint64
				for k := 0; k < 8; k++ {
					bits |= uint64(data[((r*d+i)*8+k)%len(data)]) << (8 * k)
				}
				vs[r][i] = math.Float64frombits(bits)
			}
		}
		wantMu, wantSigma := momentsReference(vs)
		from := int(lo) % (d + 1)
		for _, on := range []bool{true, false} {
			func() {
				defer SetSIMD(SetSIMD(on))
				mu, sigma := make([]float64, d), make([]float64, d)
				MomentsInto(mu, sigma, vs)
				checkMomentBits(t, fmt.Sprintf("simd=%v mu", on), mu, wantMu)
				checkMomentBits(t, fmt.Sprintf("simd=%v sigma", on), sigma, wantSigma)
				part := make([]float64, d)
				MeanRange(part, vs, from, d)
				checkMomentBits(t, fmt.Sprintf("simd=%v MeanRange [%d,%d)", on, from, d), part[from:], wantMu[from:])
			}()
		}
	})
}

// BenchmarkMoments times MomentsInto at the attack oracle's shapes:
// sim-paper-k25's 25 file gradients of 9 610 coordinates and 15 of a
// 100 008-coordinate model. /simd is the AVX-512F body, /generic the
// portable loops (MeanVecInto's and StdVecInto's two passes), /ref the
// one-coordinate-at-a-time reference. DESIGN §9.7 holds /simd to ≥ 3×
// /generic at 25 × 9 610.
func BenchmarkMoments(b *testing.B) {
	for _, shape := range []struct{ n, d int }{{25, 9_610}, {15, 100_008}} {
		rng := rand.New(rand.NewSource(1))
		rows := make([][]float64, shape.n)
		for r := range rows {
			rows[r] = make([]float64, shape.d)
			for i := range rows[r] {
				rows[r][i] = rng.NormFloat64()
			}
		}
		mu, sigma := make([]float64, shape.d), make([]float64, shape.d)
		bytes := int64(shape.n * shape.d * 8)
		name := fmt.Sprintf("%dx%d", shape.n, shape.d)
		for _, leg := range []struct {
			name string
			simd bool
		}{{"simd", true}, {"generic", false}} {
			b.Run(name+"/"+leg.name, func(b *testing.B) {
				if leg.simd && !simdSupported() {
					b.Skip("no AVX-512F")
				}
				defer SetSIMD(SetSIMD(leg.simd))
				b.SetBytes(bytes)
				for i := 0; i < b.N; i++ {
					MomentsInto(mu, sigma, rows)
				}
			})
		}
		b.Run(name+"/ref", func(b *testing.B) {
			b.SetBytes(bytes)
			for i := 0; i < b.N; i++ {
				momentsReferenceInto(mu, sigma, rows)
			}
		})
	}
}
