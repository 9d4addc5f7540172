package model

import (
	"fmt"
	"math"

	"byzshield/internal/data"
	"byzshield/internal/linalg"
)

// Model32 is a Model that can additionally run its forward/backward
// pass entirely in float32 — the compute side of the negotiated
// reduced-precision tier. The f32 methods mirror the f64 ones
// one-for-one over float32 parameter vectors and a Dataset32 view;
// like the f64 path they fix every value's operation order (see the
// package doc) and run with no parallelism, so two honest workers
// computing the same file produce bit-identical float32 gradients.
//
// Softmax and ConvNet implement Model32; the MLP stays f64-only (the
// precision tier targets the convolutional workload).
type Model32 interface {
	Model
	// Loss32 returns the mean cross-entropy loss over ds[idx], computed
	// from the float32 forward pass (accumulated in float64 so the
	// scalar is stable at large batch sizes).
	Loss32(params []float32, ds *data.Dataset32, idx []int) float64
	// SumGradient32 adds the SUM of per-sample loss gradients over
	// ds[idx] into out, which must have length NumParams().
	SumGradient32(params []float32, ds *data.Dataset32, idx []int, out []float32)
	// Predict32 returns the argmax class for features x.
	Predict32(params []float32, x []float32) int
}

// Bound is a model's kernels at width T over one dataset: what the
// round core and the wire worker call without naming a width.
type Bound[T linalg.Float] struct {
	// SumGradient adds the summed per-sample gradients of samples idx
	// into out; Loss is their mean cross-entropy loss.
	SumGradient func(params []T, idx []int, out []T)
	Loss        func(params []T, idx []int) float64
	// Accuracy is the top-1 accuracy over the whole dataset.
	Accuracy func(params []T) float64
}

// BindOf binds m to ds at width T. At float32 it takes m's Model32
// methods — wrapping linalg.ErrNoFloat32Kernels for a model without
// them — and narrows ds once (Dataset.To32); at float64 it costs three
// closures.
func BindOf[T linalg.Float](m Model, ds *data.Dataset) (Bound[T], error) {
	if linalg.Width[T]() == 8 {
		return any(Bound[float64]{
			SumGradient: func(params []float64, idx []int, out []float64) { m.SumGradient(params, ds, idx, out) },
			Loss:        func(params []float64, idx []int) float64 { return m.Loss(params, ds, idx) },
			Accuracy:    func(params []float64) float64 { return Accuracy(m, params, ds) },
		}).(Bound[T]), nil
	}
	m32, ok := m.(Model32)
	if !ok {
		return Bound[T]{}, fmt.Errorf("model %s: %w", m.Name(), linalg.ErrNoFloat32Kernels)
	}
	ds32 := ds.To32()
	return any(Bound[float32]{
		SumGradient: func(params []float32, idx []int, out []float32) { m32.SumGradient32(params, ds32, idx, out) },
		Loss:        func(params []float32, idx []int) float64 { return m32.Loss32(params, ds32, idx) },
		Accuracy:    func(params []float32) float64 { return Accuracy32(m32, params, ds32) },
	}).(Bound[T]), nil
}

// Accuracy32 returns the top-1 accuracy of m with float32 params over
// the float32 dataset view.
func Accuracy32(m Model32, params []float32, ds *data.Dataset32) float64 {
	if ds.Len() == 0 {
		return 0
	}
	checkShapes32(m, params, ds)
	correct := 0
	for i, x := range ds.X {
		if m.Predict32(params, x) == ds.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len())
}

// softmaxT converts logits to probabilities with the max-shift trick
// for numerical stability; the exponential runs through float64 in
// both instantiations (for T = float64 the conversions are identity,
// so the f64 path is unchanged op for op).
func softmaxT[T linalg.Float](logits []T) {
	maxV := logits[0]
	for _, v := range logits[1:] {
		if v > maxV {
			maxV = v
		}
	}
	var sum T
	for i, v := range logits {
		e := T(math.Exp(float64(v - maxV)))
		logits[i] = e
		sum += e
	}
	for i := range logits {
		logits[i] /= sum
	}
}

// nllClamp accumulates one sample's negative log-likelihood: the
// probability is widened to float64 and clamped away from zero before
// the log, matching the f64 loss exactly when T = float64.
func nllClamp[T linalg.Float](p T) float64 {
	pf := float64(p)
	if pf < 1e-300 {
		pf = 1e-300
	}
	return -math.Log(pf)
}

// argmaxT returns the index of the largest value (ties to the lowest
// index, matching the f64 Predict loops).
func argmaxT[T linalg.Float](vals []T) int {
	best := 0
	for c := 1; c < len(vals); c++ {
		if vals[c] > vals[best] {
			best = c
		}
	}
	return best
}

// checkShapes32 panics on dimension violations shared by the f32
// model paths.
func checkShapes32(m Model, params []float32, ds *data.Dataset32) {
	if len(params) != m.NumParams() {
		panic(fmt.Sprintf("model: %d params, want %d", len(params), m.NumParams()))
	}
	if ds.Dim() != m.InputDim() {
		panic(fmt.Sprintf("model: dataset dim %d, want %d", ds.Dim(), m.InputDim()))
	}
	if ds.Classes != m.Classes() {
		panic(fmt.Sprintf("model: dataset classes %d, want %d", ds.Classes, m.Classes()))
	}
}

// checkGradLen panics when the gradient buffer length is wrong.
func checkGradLen(m Model, n int) {
	if n != m.NumParams() {
		panic(fmt.Sprintf("model: gradient buffer %d, want %d", n, m.NumParams()))
	}
}
