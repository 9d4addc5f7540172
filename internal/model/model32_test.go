package model

import (
	"math"
	"math/rand"
	"testing"
)

// model32Cases returns the (f64, f32) model pairs under test — each is
// one value implementing both interfaces.
func model32Cases(t *testing.T, dim, classes int) []Model32 {
	t.Helper()
	sm, err := NewSoftmax(dim, classes)
	if err != nil {
		t.Fatal(err)
	}
	cn, err := NewConvNet(dim, 3, 4, classes)
	if err != nil {
		t.Fatal(err)
	}
	return []Model32{sm, cn}
}

// TestModel32GradientParity checks the f32 gradient tracks the f64
// gradient to float32 working precision over a realistic batch.
func TestModel32GradientParity(t *testing.T) {
	ds := smallDataset(t, 40, 8, 4)
	ds32 := ds.To32()
	idx := make([]int, 32)
	for i := range idx {
		idx[i] = i
	}
	for _, m := range model32Cases(t, 8, 4) {
		p64 := InitParams(m, 17)
		p32 := InitParams32(m, 17)
		g64 := make([]float64, m.NumParams())
		g32 := make([]float32, m.NumParams())
		m.SumGradient(p64, ds, idx, g64)
		m.SumGradient32(p32, ds32, idx, g32)
		var scale float64
		for _, v := range g64 {
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
		for i := range g64 {
			diff := math.Abs(g64[i] - float64(g32[i]))
			if diff > 1e-4*(math.Abs(g64[i])+scale) {
				t.Errorf("%s: grad[%d] f64=%v f32=%v", m.Name(), i, g64[i], g32[i])
			}
		}
		l64 := m.Loss(p64, ds, idx)
		l32 := m.Loss32(p32, ds32, idx)
		if math.Abs(l64-l32) > 1e-4*(math.Abs(l64)+1) {
			t.Errorf("%s: loss f64=%v f32=%v", m.Name(), l64, l32)
		}
	}
}

// TestModel32GradientDeterministic pins the bit-determinism the f32
// majority vote relies on: same params, same indices, same bits.
func TestModel32GradientDeterministic(t *testing.T) {
	ds := smallDataset(t, 20, 6, 3)
	ds32 := ds.To32()
	idx := []int{3, 1, 4, 1, 5}
	for _, m := range model32Cases(t, 6, 3) {
		p32 := InitParams32(m, 5)
		g1 := make([]float32, m.NumParams())
		g2 := make([]float32, m.NumParams())
		m.SumGradient32(p32, ds32, idx, g1)
		m.SumGradient32(p32, ds32, idx, g2)
		for i := range g1 {
			if math.Float32bits(g1[i]) != math.Float32bits(g2[i]) {
				t.Fatalf("%s: f32 gradient not bit-deterministic at %d", m.Name(), i)
			}
		}
	}
}

// TestSoftmaxGradient32SubnormalBits drives the f32 softmax gradient
// into class probabilities below float32's normal range, where it forms
// the products in float64, and checks the gradient's bits against the
// plain float32 loop. The last class's bias sinks its probability to
// ~1e-41 and no sample carries its label, so its weight row sums only
// subnormal products.
func TestSoftmaxGradient32SubnormalBits(t *testing.T) {
	const dim, classes = 16, 4
	sm, err := NewSoftmax(dim, classes)
	if err != nil {
		t.Fatal(err)
	}
	ds32 := smallDataset(t, 48, dim, classes).To32()
	params := InitParams32(sm, 3)
	params[classes*dim+classes-1] = -95
	var idx []int
	for i, y := range ds32.Y {
		if y != classes-1 {
			idx = append(idx, i)
		}
	}
	got := make([]float32, sm.NumParams())
	sm.SumGradient32(params, ds32, idx, got)

	want := make([]float32, sm.NumParams())
	probs := make([]float32, classes)
	subnormal := 0
	for _, i := range idx {
		softmaxLogitsT(dim, classes, params, ds32.X[i], probs)
		softmaxT(probs)
		for c, diff := range probs {
			if c == ds32.Y[i] {
				diff -= 1
			}
			if diff != 0 && math.Abs(float64(diff)) < 0x1p-126 {
				subnormal++
			}
			for j, xv := range ds32.X[i] {
				want[c*dim+j] += diff * xv
			}
			want[classes*dim+c] += diff
		}
	}
	if subnormal < len(idx)/2 {
		t.Fatalf("%d of %d samples have a class probability below float32's normal range", subnormal, len(idx))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("grad[%d] = %v (%#x), want %v (%#x)", i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}

	// The product identity itself, over subnormal factors and every kind
	// of float32 partner.
	rng := rand.New(rand.NewSource(9))
	partners := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), math.MaxFloat32, math.SmallestNonzeroFloat32, 0x1p-126, 1e30}
	for trial := 0; trial < 100000; trial++ {
		d := math.Float32frombits(uint32(1+rng.Intn(1<<23-1)) | uint32(rng.Intn(2))<<31)
		x := math.Float32frombits(rng.Uint32())
		if trial < len(partners) {
			x = partners[trial]
		}
		if got, want := float32(float64(d)*float64(x)), d*x; math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("%v * %v: float64 product rounds to %#x, float32 product is %#x", d, x, math.Float32bits(got), math.Float32bits(want))
		}
	}
}

// TestModel32PredictAgreement checks the two widths classify (almost)
// identically at a shared parameter point.
func TestModel32PredictAgreement(t *testing.T) {
	ds := smallDataset(t, 100, 8, 4)
	ds32 := ds.To32()
	for _, m := range model32Cases(t, 8, 4) {
		p64 := InitParams(m, 23)
		p32 := InitParams32(m, 23)
		agree := 0
		for i, x := range ds.X {
			if m.Predict(p64, x) == m.Predict32(p32, ds32.X[i]) {
				agree++
			}
		}
		if agree < 95 {
			t.Errorf("%s: only %d/100 predictions agree across widths", m.Name(), agree)
		}
	}
}

// TestTrainingReducesLoss32 trains the f32 path end to end: SGD on
// float32 parameters must fit the separable synthetic task.
func TestTrainingReducesLoss32(t *testing.T) {
	ds := smallDataset(t, 200, 6, 3)
	ds32 := ds.To32()
	for _, m := range model32Cases(t, 6, 3) {
		params := InitParams32(m, 7)
		idx := make([]int, ds32.Len())
		for i := range idx {
			idx[i] = i
		}
		initial := m.Loss32(params, ds32, idx)
		grad := make([]float32, m.NumParams())
		for step := 0; step < 100; step++ {
			clear(grad)
			m.SumGradient32(params, ds32, idx, grad)
			lr := float32(0.1 / float64(len(idx)))
			for i := range params {
				params[i] -= lr * grad[i]
			}
		}
		final := m.Loss32(params, ds32, idx)
		if final >= initial {
			t.Errorf("%s: f32 loss did not decrease: %v -> %v", m.Name(), initial, final)
		}
		if acc := Accuracy32(m, params, ds32); acc < 0.8 {
			t.Errorf("%s: f32 training accuracy %v < 0.8 on separable data", m.Name(), acc)
		}
	}
}

// TestDataset32Conversion pins the deterministic narrowing.
func TestDataset32Conversion(t *testing.T) {
	ds := smallDataset(t, 10, 4, 3)
	a, b := ds.To32(), ds.To32()
	if a.Len() != ds.Len() || a.Dim() != ds.Dim() || a.Classes != ds.Classes {
		t.Fatal("Dataset32 shape mismatch")
	}
	for i := range a.X {
		for j := range a.X[i] {
			if math.Float32bits(a.X[i][j]) != math.Float32bits(b.X[i][j]) {
				t.Fatal("To32 not deterministic")
			}
			if a.X[i][j] != float32(ds.X[i][j]) {
				t.Fatal("To32 not a per-feature narrowing")
			}
		}
	}
}

// TestInitParams32Matches pins InitParams32 as the narrowed image of
// the f64 init.
func TestInitParams32Matches(t *testing.T) {
	m, _ := NewConvNet(10, 3, 2, 4)
	p64 := InitParams(m, 42)
	p32 := InitParams32(m, 42)
	for i := range p64 {
		if p32[i] != float32(p64[i]) {
			t.Fatalf("InitParams32[%d] = %v, want %v", i, p32[i], float32(p64[i]))
		}
	}
}
