package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// denseDraws returns the value generators the dense-kernel test mixes:
// random bit patterns, Gaussians with ±0, and special values — NaNs of
// both signs with distinct payloads (quiet and signalling), ±0, ±Inf and
// subnormals — alone and sprinkled into Gaussians.
func denseDraws(rng *rand.Rand) []func() float64 {
	specials := []float64{
		math.NaN(), math.Copysign(math.NaN(), -1),
		math.Float64frombits(0x7ff0_0000_0000_0001), math.Float64frombits(0xfff0_0000_0000_0abc),
		math.Float64frombits(0x7ff8_dead_beef_0000), math.Float64frombits(0xfffc_0000_0000_0001),
		0, math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1),
		math.Float64frombits(1), math.Float64frombits(1 | 1<<63), // ± smallest subnormal
		math.Float64frombits(1<<52 - 1), 0x1p-1000,
		1, -1, 0.5,
	}
	return []func() float64{
		func() float64 { return math.Float64frombits(rng.Uint64()) },
		func() float64 {
			if rng.Intn(6) == 0 {
				return math.Copysign(0, float64(rng.Intn(2)-1))
			}
			return rng.NormFloat64()
		},
		func() float64 { return specials[rng.Intn(len(specials))] },
		func() float64 {
			if rng.Intn(16) == 0 {
				return specials[rng.Intn(len(specials))]
			}
			return rng.NormFloat64()
		},
	}
}

// checkDenseBits fails at the first element where asm and portable
// differ in bits, unless both are NaN: Go leaves a NaN result's payload
// unspecified, and the operand order the compiler gives the scalar
// loops — which decides it — changes under -race.
func checkDenseBits(t *testing.T, what string, asm, portable []float64) {
	t.Helper()
	for i, p := range portable {
		if s := asm[i]; math.Float64bits(s) != math.Float64bits(p) && !(s != s && p != p) {
			t.Fatalf("%s: [%d] = %#x (%v), portable %#x (%v)", what, i, math.Float64bits(s), s, math.Float64bits(p), p)
		}
	}
}

// TestDenseKernelsMatchPortable holds the assembly dense kernels to
// their portable scalar loops bit for bit (a NaN matching any NaN), over
// every n = 0…257 (every 8-, 32- and 64-coordinate tail) and row counts
// m = 0…9 (every mix of the 8-, 4-, 2- and 1-row blocks and every
// 8-delta tail) plus a sample of larger m, with ±0 accumulators and
// deltas, NaNs of both signs in both operands, ±Inf and subnormals. On
// a CPU without AVX-512F both legs run the portable body and the test
// says so.
func TestDenseKernelsMatchPortable(t *testing.T) {
	if simdSupported() {
		t.Log("dense dispatch: AVX-512F assembly bodies")
	} else {
		t.Log("dense dispatch: portable Go bodies (no AVX-512F): the SIMD leg did not run")
	}
	defer SetSIMD(SetSIMD(true))
	rng := rand.New(rand.NewSource(40))
	draws := denseDraws(rng)
	fill := func(v []float64, draw func() float64) []float64 {
		for i := range v {
			v[i] = draw()
		}
		return v
	}
	// both runs the kernel on a copy of start at each dispatch and
	// compares the two results.
	both := func(what string, start []float64, kernel func(dst []float64)) {
		t.Helper()
		asm, portable := append([]float64(nil), start...), append([]float64(nil), start...)
		SetSIMD(true)
		kernel(asm)
		SetSIMD(false)
		kernel(portable)
		checkDenseBits(t, what, asm, portable)
	}
	for n := 0; n <= 257; n++ {
		for _, m := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 17} {
			if n > 20 && m > 9 && n%7 != 0 {
				continue // keep the larger shapes to a sample
			}
			for kind, draw := range draws {
				name := fmt.Sprintf("n=%d m=%d kind %d", n, m, kind)
				w := fill(make([]float64, m*n), draw)
				b := fill(make([]float64, m), draw)
				x := fill(make([]float64, n*DenseLanes), draw)
				delta := fill(make([]float64, m), draw)
				// Half the deltas ±0, as behind dead ReLU units.
				for o := range delta {
					if rng.Intn(2) == 0 {
						delta[o] = math.Copysign(0, float64(rng.Intn(2)-1))
					}
				}
				for _, relu := range []bool{false, true} {
					both(fmt.Sprintf("%s AffineLanes(relu=%v)", name, relu), fill(make([]float64, m*DenseLanes), draw), func(out []float64) {
						AffineLanes(w, b, x, out, relu)
					})
				}
				bias := fill(make([]float64, m), draw)
				both(name+" AddOuter", fill(make([]float64, m*n), draw), func(acc []float64) {
					AddOuter(acc, bias, delta, x[:n])
				})
				both(name+" AddOuter bias", bias, func(acc []float64) {
					AddOuter(make([]float64, m*n), acc, delta, x[:n])
				})
				// About half the activations are ±0, as behind dead units.
				act := fill(make([]float64, n), draw)
				for j := range act {
					if rng.Intn(2) == 0 {
						act[j] = math.Copysign(0, float64(rng.Intn(2)-1))
					}
				}
				both(name+" BackpropReLU", fill(make([]float64, n), draw), func(dst []float64) {
					BackpropReLU(dst, delta, w, act)
				})
			}
		}
	}
}

// TestDenseKernelsShapes pins the dense kernels' length checks: a
// mismatched shape panics at both dispatches instead of reading or
// writing past a slice.
func TestDenseKernelsShapes(t *testing.T) {
	defer SetSIMD(SetSIMD(true))
	v := func(n int) []float64 { return make([]float64, n) }
	const l = DenseLanes
	cases := map[string]func(){
		"AffineLanes ragged x":   func() { AffineLanes(v(6), v(2), v(3*l+1), v(2*l), true) },
		"AffineLanes short w":    func() { AffineLanes(v(5), v(2), v(3*l), v(2*l), true) },
		"AffineLanes short out":  func() { AffineLanes(v(6), v(2), v(3*l), v(l), false) },
		"AddOuter short w":       func() { AddOuter(v(5), v(2), v(2), v(3)) },
		"AddOuter short b":       func() { AddOuter(v(6), v(1), v(2), v(3)) },
		"BackpropReLU short w":   func() { BackpropReLU(v(3), v(2), v(7), v(3)) },
		"BackpropReLU short act": func() { BackpropReLU(v(3), v(2), v(6), v(2)) },
	}
	for _, on := range []bool{true, false} {
		SetSIMD(on)
		for name, f := range cases {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("simd=%v: %s did not panic", on, name)
					}
				}()
				f()
			}()
		}
	}
}
