package model

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"byzshield/internal/data"
	"byzshield/internal/linalg"
)

func smallDataset(t testing.TB, n, dim, classes int) *data.Dataset {
	t.Helper()
	tr, _, err := data.Synthetic(data.SyntheticConfig{
		Train: n, Test: 1, Dim: dim, Classes: classes, Seed: 11, ClassSep: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// numericGradient computes a central-difference gradient of the MEAN
// loss and scales to the SUM convention.
func numericGradient(m Model, params []float64, ds *data.Dataset, idx []int) []float64 {
	const h = 1e-6
	grad := make([]float64, len(params))
	p := append([]float64(nil), params...)
	for i := range p {
		orig := p[i]
		p[i] = orig + h
		lp := m.Loss(p, ds, idx)
		p[i] = orig - h
		lm := m.Loss(p, ds, idx)
		p[i] = orig
		grad[i] = (lp - lm) / (2 * h) * float64(len(idx))
	}
	return grad
}

func checkGradient(t *testing.T, m Model, ds *data.Dataset, idx []int, seed int64, tol float64) {
	t.Helper()
	params := InitParams(m, seed)
	analytic := make([]float64, m.NumParams())
	m.SumGradient(params, ds, idx, analytic)
	numeric := numericGradient(m, params, ds, idx)
	var maxErr, scale float64
	for i := range analytic {
		err := math.Abs(analytic[i] - numeric[i])
		if err > maxErr {
			maxErr = err
		}
		if a := math.Abs(numeric[i]); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		scale = 1
	}
	if maxErr/scale > tol {
		t.Errorf("%s: max gradient error %v (relative %v)", m.Name(), maxErr, maxErr/scale)
	}
}

func TestSoftmaxGradientMatchesNumeric(t *testing.T) {
	ds := smallDataset(t, 12, 5, 3)
	m, err := NewSoftmax(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkGradient(t, m, ds, []int{0, 1, 2, 3, 4, 5}, 1, 1e-5)
	checkGradient(t, m, ds, []int{7}, 2, 1e-5)
}

func TestMLPGradientMatchesNumeric(t *testing.T) {
	ds := smallDataset(t, 10, 4, 3)
	m, err := NewMLP(4, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkGradient(t, m, ds, []int{0, 1, 2, 3}, 3, 1e-4)
}

func TestMLPTwoHiddenGradient(t *testing.T) {
	ds := smallDataset(t, 8, 4, 2)
	m, err := NewMLP(4, 6, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkGradient(t, m, ds, []int{0, 1, 2}, 4, 1e-4)
}

func TestSoftmaxShapes(t *testing.T) {
	m, err := NewSoftmax(8, 10)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumParams() != 8*10+10 {
		t.Errorf("NumParams = %d", m.NumParams())
	}
	if m.InputDim() != 8 || m.Classes() != 10 {
		t.Error("dims wrong")
	}
	if _, err := NewSoftmax(0, 2); err == nil {
		t.Error("dim 0 accepted")
	}
	if _, err := NewSoftmax(4, 1); err == nil {
		t.Error("1 class accepted")
	}
}

func TestMLPShapes(t *testing.T) {
	m, err := NewMLP(4, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := 4*16 + 16 + 16*3 + 3
	if m.NumParams() != want {
		t.Errorf("NumParams = %d, want %d", m.NumParams(), want)
	}
	if _, err := NewMLP(4, 3); err == nil {
		t.Error("no hidden layer accepted")
	}
	if _, err := NewMLP(4, 0, 3); err == nil {
		t.Error("zero-width layer accepted")
	}
	if _, err := NewMLP(4, 8, 1); err == nil {
		t.Error("single output class accepted")
	}
}

func TestGradientDeterministic(t *testing.T) {
	// The majority-vote layer requires bit-identical gradients from
	// honest replicas: same params, same indices, same result bytes.
	ds := smallDataset(t, 20, 6, 4)
	m, err := NewMLP(6, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	params := InitParams(m, 5)
	idx := []int{3, 1, 4, 1, 5} // duplicates allowed; order fixed
	g1 := make([]float64, m.NumParams())
	g2 := make([]float64, m.NumParams())
	m.SumGradient(params, ds, idx, g1)
	m.SumGradient(params, ds, idx, g2)
	for i := range g1 {
		if math.Float64bits(g1[i]) != math.Float64bits(g2[i]) {
			t.Fatalf("gradient not bit-deterministic at %d", i)
		}
	}
}

func TestSumGradientIsAdditive(t *testing.T) {
	ds := smallDataset(t, 10, 4, 3)
	m, _ := NewSoftmax(4, 3)
	params := InitParams(m, 6)
	gAll := make([]float64, m.NumParams())
	m.SumGradient(params, ds, []int{0, 1, 2, 3}, gAll)
	gParts := make([]float64, m.NumParams())
	m.SumGradient(params, ds, []int{0, 1}, gParts)
	m.SumGradient(params, ds, []int{2, 3}, gParts)
	for i := range gAll {
		if math.Abs(gAll[i]-gParts[i]) > 1e-12 {
			t.Fatalf("sum gradient not additive at %d: %v vs %v", i, gAll[i], gParts[i])
		}
	}
}

func TestTrainingReducesLossSoftmax(t *testing.T) {
	ds := smallDataset(t, 200, 6, 3)
	m, _ := NewSoftmax(6, 3)
	params := InitParams(m, 7)
	idx := make([]int, ds.Len())
	for i := range idx {
		idx[i] = i
	}
	initial := m.Loss(params, ds, idx)
	grad := make([]float64, m.NumParams())
	for step := 0; step < 100; step++ {
		for i := range grad {
			grad[i] = 0
		}
		m.SumGradient(params, ds, idx, grad)
		lr := 0.1 / float64(len(idx))
		for i := range params {
			params[i] -= lr * grad[i]
		}
	}
	final := m.Loss(params, ds, idx)
	if final >= initial {
		t.Errorf("loss did not decrease: %v -> %v", initial, final)
	}
	acc := Accuracy(m, params, ds)
	if acc < 0.8 {
		t.Errorf("training accuracy %v < 0.8 on separable data", acc)
	}
}

func TestTrainingReducesLossMLP(t *testing.T) {
	ds := smallDataset(t, 150, 5, 3)
	m, _ := NewMLP(5, 12, 3)
	params := InitParams(m, 8)
	idx := make([]int, ds.Len())
	for i := range idx {
		idx[i] = i
	}
	initial := m.Loss(params, ds, idx)
	grad := make([]float64, m.NumParams())
	for step := 0; step < 150; step++ {
		for i := range grad {
			grad[i] = 0
		}
		m.SumGradient(params, ds, idx, grad)
		lr := 0.05 / float64(len(idx))
		for i := range params {
			params[i] -= lr * grad[i]
		}
	}
	final := m.Loss(params, ds, idx)
	if final >= initial*0.7 {
		t.Errorf("MLP loss did not decrease enough: %v -> %v", initial, final)
	}
}

func TestAccuracyBounds(t *testing.T) {
	ds := smallDataset(t, 30, 4, 3)
	m, _ := NewSoftmax(4, 3)
	params := InitParams(m, 9)
	acc := Accuracy(m, params, ds)
	if acc < 0 || acc > 1 {
		t.Errorf("accuracy %v outside [0,1]", acc)
	}
	empty := &data.Dataset{Classes: 3}
	if Accuracy(m, params, empty) != 0 {
		t.Error("empty dataset accuracy != 0")
	}
}

func TestInitParamsDeterministic(t *testing.T) {
	m, _ := NewSoftmax(4, 3)
	a := InitParams(m, 42)
	b := InitParams(m, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("InitParams not deterministic")
		}
	}
	c := InitParams(m, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave identical init")
	}
}

func TestLossEmptyIndices(t *testing.T) {
	ds := smallDataset(t, 5, 4, 3)
	m, _ := NewSoftmax(4, 3)
	params := InitParams(m, 1)
	if m.Loss(params, ds, nil) != 0 {
		t.Error("empty-index loss != 0")
	}
}

func TestShapePanics(t *testing.T) {
	ds := smallDataset(t, 5, 4, 3)
	m, _ := NewSoftmax(5, 3) // wrong dim vs dataset
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	m.Loss(make([]float64, m.NumParams()), ds, []int{0})
}

// The reference kernels below are the one-chain, one-sample-at-a-time
// loops the register-blocked kernels (kernels.go) replaced. Every value
// the blocked kernels produce must match them bit for bit: that is what
// keeps the trajectory pins valid.

// softmaxLogitsT computes W·x + b into out (length classes), one class
// at a time.
func softmaxLogitsT[T linalg.Float](dim, classes int, params, x, out []T) {
	for c := 0; c < classes; c++ {
		row := params[c*dim : (c+1)*dim]
		var v T
		for j, xv := range x {
			v += row[j] * xv
		}
		out[c] = v + params[classes*dim+c]
	}
}

// softmaxGradRef is the per-sample summed softmax gradient.
func softmaxGradRef[T linalg.Float](dim, classes int, params []T, x [][]T, y, idx []int, out, probs []T) {
	for _, i := range idx {
		xi := x[i]
		softmaxLogitsT(dim, classes, params, xi, probs)
		softmaxT(probs)
		for c := 0; c < classes; c++ {
			diff := probs[c]
			if c == y[i] {
				diff -= 1
			}
			row := out[c*dim : (c+1)*dim]
			if d := math.Abs(float64(diff)); d != 0 && d < 0x1p-126 {
				for j, xv := range xi {
					row[j] += T(float64(diff) * float64(xv))
				}
			} else {
				for j, xv := range xi {
					row[j] += diff * xv
				}
			}
			out[classes*dim+c] += diff
		}
	}
}

// softmaxLossRef is the per-sample mean cross-entropy loss.
func softmaxLossRef[T linalg.Float](dim, classes int, params []T, x [][]T, y, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	probs := make([]T, classes)
	var total float64
	for _, i := range idx {
		softmaxLogitsT(dim, classes, params, x[i], probs)
		softmaxT(probs)
		total += nllClamp(probs[y[i]])
	}
	return total / float64(len(idx))
}

// mlpForwardRef is MLP.forward with one accumulator per hidden unit.
func mlpForwardRef(m *MLP, params, x []float64, s *mlpScratch) {
	nLayers := len(m.dims) - 1
	s.acts[0] = x
	for layer := 0; layer < nLayers; layer++ {
		in := s.acts[layer]
		inDim, outDim := m.dims[layer], m.dims[layer+1]
		off := m.layerOffset(layer)
		w := params[off : off+inDim*outDim]
		b := params[off+inDim*outDim : off+inDim*outDim+outDim]
		pre := s.preacts[layer]
		for o := 0; o < outDim; o++ {
			row := w[o*inDim : (o+1)*inDim]
			row = row[:len(in)] // one check per row, none per element
			var v float64
			for j, xv := range in {
				v += row[j] * xv
			}
			pre[o] = v + b[o]
		}
		act := s.acts[layer+1]
		copy(act, pre)
		if layer == nLayers-1 {
			softmaxT(act)
		} else {
			for i, v := range act {
				if v < 0 {
					act[i] = 0
				}
			}
		}
	}
}

// mlpSumGradientRef is MLP.SumGradient over mlpForwardRef.
func mlpSumGradientRef(m *MLP, params []float64, ds *data.Dataset, idx []int, out []float64) {
	nLayers := len(m.dims) - 1
	s := m.getScratch()
	defer m.scratch.Put(s)
	for _, i := range idx {
		mlpForwardRef(m, params, ds.X[i], s)
		outDim := m.dims[nLayers]
		bufA, bufB := s.delta, s.delta2
		delta := bufA[:outDim]
		copy(delta, s.acts[nLayers])
		delta[ds.Y[i]] -= 1
		for layer := nLayers - 1; layer >= 0; layer-- {
			inDim, oDim := m.dims[layer], m.dims[layer+1]
			off := m.layerOffset(layer)
			wGrad := out[off : off+inDim*oDim]
			bGrad := out[off+inDim*oDim : off+inDim*oDim+oDim]
			in := s.acts[layer]
			for o := 0; o < oDim; o++ {
				dv := delta[o]
				if dv == 0 {
					continue
				}
				row := wGrad[o*inDim : (o+1)*inDim]
				row = row[:len(in)]
				for j, xv := range in {
					row[j] += dv * xv
				}
				bGrad[o] += dv
			}
			if layer > 0 {
				w := params[off : off+inDim*oDim]
				newDelta := bufB[:inDim]
				clear(newDelta)
				for o := 0; o < oDim; o++ {
					dv := delta[o]
					if dv == 0 {
						continue
					}
					row := w[o*inDim : (o+1)*inDim]
					row = row[:len(newDelta)]
					for j := range newDelta {
						newDelta[j] += dv * row[j]
					}
				}
				pre := s.preacts[layer-1][:len(newDelta)]
				for j := range newDelta {
					if pre[j] <= 0 {
						newDelta[j] = 0
					}
				}
				delta = newDelta
				bufA, bufB = bufB, bufA
			}
		}
	}
}

// mlpLossRef is MLP.Loss over mlpForwardRef.
func mlpLossRef(m *MLP, params []float64, ds *data.Dataset, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	s := m.getScratch()
	defer m.scratch.Put(s)
	var total float64
	for _, i := range idx {
		mlpForwardRef(m, params, ds.X[i], s)
		total += nllClamp(s.acts[len(s.acts)-1][ds.Y[i]])
	}
	return total / float64(len(idx))
}

// kernelFiles returns the files the bit-identity tests run: every size
// 0–9 and 30, drawn with repeats from n samples, plus one file that
// holds a single sample twice in a row.
func kernelFiles(rng *rand.Rand, n int) [][]int {
	var files [][]int
	for _, size := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 30} {
		f := make([]int, size)
		for k := range f {
			f[k] = rng.Intn(n)
		}
		files = append(files, f)
	}
	return append(files, []int{n - 1, n - 1, 0})
}

// startGrad returns a gradient buffer of length n that starts non-zero
// and holds −0 and +0, the buffer every file's gradient is added into.
func startGrad[T linalg.Float](rng *rand.Rand, n int) []T {
	g := make([]T, n)
	for i := range g {
		switch i % 5 {
		case 0:
			g[i] = T(math.Copysign(0, -1))
		case 1:
		default:
			g[i] = T(rng.NormFloat64())
		}
	}
	return g
}

// checkBits fails the test at the first coordinate where got and want
// differ in bits.
func checkBits[T linalg.Float](t *testing.T, what string, got, want []T) {
	t.Helper()
	if !linalg.EqualBits(got, want) {
		for i := range want {
			if linalg.Bits(got[i]) != linalg.Bits(want[i]) {
				t.Fatalf("%s: [%d] = %v, reference %v", what, i, got[i], want[i])
			}
		}
	}
}

// checkSoftmaxWidth compares the blocked softmax kernels with the
// reference at width T over every file.
func checkSoftmaxWidth[T linalg.Float](t *testing.T, name string, sm *Softmax, params []T, x [][]T, y []int, files [][]int, rng *rand.Rand,
	grad func(params []T, idx []int, out []T), loss func(params []T, idx []int) float64, predict func(params, x []T) int) {
	t.Helper()
	dim, classes := sm.dim, sm.classes
	probs := make([]T, classes)
	for _, idx := range files {
		got := startGrad[T](rng, sm.NumParams())
		want := append([]T(nil), got...)
		grad(params, idx, got)
		softmaxGradRef(dim, classes, params, x, y, idx, want, probs)
		checkBits(t, fmt.Sprintf("%s gradient over %v", name, idx), got, want)
		if l, r := loss(params, idx), softmaxLossRef(dim, classes, params, x, y, idx); math.Float64bits(l) != math.Float64bits(r) {
			t.Fatalf("%s loss over %v = %v, reference %v", name, idx, l, r)
		}
	}
	for i, xi := range x {
		softmaxLogitsT(dim, classes, params, xi, probs)
		if got, want := predict(params, xi), argmaxT(probs); got != want {
			t.Fatalf("%s: Predict(sample %d) = %d, reference %d", name, i, got, want)
		}
	}
}

// TestSoftmaxKernelsMatchReference pins the blocked softmax kernels
// (sample pairs, four classes a pass, the subnormal fallback) to the
// per-sample loops at both widths, over class counts and dimensions
// that run every tail.
func TestSoftmaxKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, classes := range []int{2, 3, 4, 5, 8, 10, 17} {
		for _, dim := range []int{1, 3, 64, 257} {
			for _, tinyClass := range []bool{false, true} {
				name := fmt.Sprintf("softmax(%dx%d)", classes, dim)
				ds := smallDataset(t, 24, dim, classes)
				sm, err := NewSoftmax(dim, classes)
				if err != nil {
					t.Fatal(err)
				}
				p64 := InitParams(sm, int64(classes*1000+dim))
				if tinyClass {
					// Sink two classes' probabilities below float32's
					// normal range, so their differences are subnormal
					// at f32 and take the per-class fallback at both
					// widths, beside groups that do not.
					name += "/tiny"
					p64[classes*dim+classes-1] = -95
					p64[classes*dim+classes/2] = -95
				}
				p32 := make([]float32, len(p64))
				for i, v := range p64 {
					p32[i] = float32(v)
				}
				ds32 := ds.To32()
				files := kernelFiles(rng, ds.Len())
				checkSoftmaxWidth(t, name+"/f64", sm, p64, ds.X, ds.Y, files, rng,
					func(p []float64, idx []int, out []float64) { sm.SumGradient(p, ds, idx, out) },
					func(p []float64, idx []int) float64 { return sm.Loss(p, ds, idx) }, sm.Predict)
				checkSoftmaxWidth(t, name+"/f32", sm, p32, ds32.X, ds32.Y, files, rng,
					func(p []float32, idx []int, out []float32) { sm.SumGradient32(p, ds32, idx, out) },
					func(p []float32, idx []int) float64 { return sm.Loss32(p, ds32, idx) }, sm.Predict32)
			}
		}
	}
}

// TestSoftmaxKernelsSubnormalFile runs the subnormal setup of
// TestSoftmaxGradient32SubnormalBits through the blocked kernels file by
// file, so pairs mix subnormal and normal class differences.
func TestSoftmaxKernelsSubnormalFile(t *testing.T) {
	const dim, classes = 16, 4
	sm, err := NewSoftmax(dim, classes)
	if err != nil {
		t.Fatal(err)
	}
	ds32 := smallDataset(t, 48, dim, classes).To32()
	params := InitParams32(sm, 3)
	params[classes*dim+classes-1] = -95
	rng := rand.New(rand.NewSource(4))
	checkSoftmaxWidth(t, "subnormal", sm, params, ds32.X, ds32.Y, kernelFiles(rng, ds32.Len()), rng,
		func(p []float32, idx []int, out []float32) { sm.SumGradient32(p, ds32, idx, out) },
		func(p []float32, idx []int) float64 { return sm.Loss32(p, ds32, idx) }, sm.Predict32)
}

// TestMLPKernelsMatchReference pins the blocked MLP forward to the
// one-accumulator loops: gradients, losses and predictions, over shapes
// whose layers end on and off a four-row boundary, with dead ReLU units
// whose deltas are exactly zero.
func TestMLPKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, dims := range [][]int{{1, 4, 3}, {3, 5, 2}, {4, 6, 5, 2}, {64, 128, 10}, {257, 17, 5}, {64, 9, 8, 17}} {
		m, err := NewMLP(dims...)
		if err != nil {
			t.Fatal(err)
		}
		ds := smallDataset(t, 24, dims[0], dims[len(dims)-1])
		params := InitParams(m, int64(len(dims)*100+dims[1]))
		// Kill every third unit of the first hidden layer.
		b := params[dims[0]*dims[1] : dims[0]*dims[1]+dims[1]]
		for o := 0; o < len(b); o += 3 {
			b[o] = -1e3
		}
		for _, idx := range kernelFiles(rng, ds.Len()) {
			got := startGrad[float64](rng, m.NumParams())
			want := append([]float64(nil), got...)
			m.SumGradient(params, ds, idx, got)
			mlpSumGradientRef(m, params, ds, idx, want)
			checkBits(t, fmt.Sprintf("%s gradient over %v", m.Name(), idx), got, want)
			if l, r := m.Loss(params, ds, idx), mlpLossRef(m, params, ds, idx); math.Float64bits(l) != math.Float64bits(r) {
				t.Fatalf("%s loss over %v = %v, reference %v", m.Name(), idx, l, r)
			}
		}
		s := m.getScratch()
		for i, x := range ds.X {
			mlpForwardRef(m, params, x, s)
			if got, want := m.Predict(params, x), argmaxT(s.acts[len(s.acts)-1]); got != want {
				t.Fatalf("%s: Predict(sample %d) = %d, reference %d", m.Name(), i, got, want)
			}
		}
	}
}

// TestAccuracyChecksShapes pins that scoring a dataset of the wrong
// width panics at both widths instead of returning a number, and that
// Predict rejects a sample of the wrong length.
func TestAccuracyChecksShapes(t *testing.T) {
	ds := smallDataset(t, 20, 3, 2)
	sm, _ := NewSoftmax(4, 2)
	mlp, _ := NewMLP(4, 5, 2)
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	for _, m := range []Model{sm, mlp} {
		params := InitParams(m, 1)
		mustPanic(m.Name()+" Accuracy on a dim-3 dataset", func() { Accuracy(m, params, ds) })
		mustPanic(m.Name()+" Predict on 3 features", func() { m.Predict(params, ds.X[0]) })
	}
	p32 := InitParams32(sm, 1)
	mustPanic("Accuracy32 on a dim-3 dataset", func() { Accuracy32(sm, p32, ds.To32()) })
	mustPanic("Predict32 on 3 features", func() { sm.Predict32(p32, ds.To32().X[0]) })
}

// BenchmarkModelGradient times SumGradient at the shapes the benchmark
// workloads run, one file a call, beside the reference kernels ("ref"):
// the MLP of sim-paper-k25, the softmax of sim-wide-f64/f32 (2 samples a
// file), fleet-k60-int8 and fleet-k15-f32 (softmax 2000×8) and
// fleet-k240-raw (softmax 256×8, 1 sample a file). ns/sample is the
// figure to compare.
func BenchmarkModelGradient(b *testing.B) {
	run := func(b *testing.B, samples int, grad func()) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			grad()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*samples), "ns/sample")
	}
	file := func(n int) []int {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	{
		ds := smallDataset(b, 30, 64, 10)
		m, _ := NewMLP(64, 128, 10)
		params, idx := InitParams(m, 1), file(30)
		out := make([]float64, m.NumParams())
		b.Run("mlp-64-128-10/n30", func(b *testing.B) { run(b, len(idx), func() { m.SumGradient(params, ds, idx, out) }) })
		b.Run("mlp-64-128-10/n30/ref", func(b *testing.B) {
			run(b, len(idx), func() { mlpSumGradientRef(m, params, ds, idx, out) })
		})
	}
	for _, c := range []struct {
		dim, n int
		f32    bool
	}{{12500, 2, false}, {12500, 2, true}, {2000, 2, false}, {256, 1, false}} {
		ds := smallDataset(b, c.n, c.dim, 8)
		sm, _ := NewSoftmax(c.dim, 8)
		idx := file(c.n)
		name := fmt.Sprintf("softmax-%dx8/n%d", c.dim, c.n)
		if c.f32 {
			ds32, params := ds.To32(), InitParams32(sm, 1)
			out, probs := make([]float32, sm.NumParams()), make([]float32, 8)
			b.Run(name+"/f32", func(b *testing.B) { run(b, c.n, func() { sm.SumGradient32(params, ds32, idx, out) }) })
			b.Run(name+"/f32/ref", func(b *testing.B) {
				run(b, c.n, func() { softmaxGradRef(c.dim, 8, params, ds32.X, ds32.Y, idx, out, probs) })
			})
			continue
		}
		params := InitParams(sm, 1)
		out, probs := make([]float64, sm.NumParams()), make([]float64, 8)
		b.Run(name+"/f64", func(b *testing.B) { run(b, c.n, func() { sm.SumGradient(params, ds, idx, out) }) })
		b.Run(name+"/f64/ref", func(b *testing.B) {
			run(b, c.n, func() { softmaxGradRef(c.dim, 8, params, ds.X, ds.Y, idx, out, probs) })
		})
	}
}
