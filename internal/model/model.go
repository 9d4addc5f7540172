// Package model implements the pure-Go classification models whose
// gradients the distributed protocol trains: multinomial (softmax)
// logistic regression and a multi-layer perceptron with ReLU hidden
// layers, both with exact analytic gradients (verified against finite
// differences in the tests). The paper trains ResNet-18; these models
// substitute for it per the DESIGN.md inventory — the defense layer only
// ever sees flat gradient vectors, so any SGD-trained classifier
// exercises the same code paths.
//
// Parameters are flat []float64 vectors, which is what the parameter
// server broadcasts and the aggregation rules consume. Gradient
// computation runs with no parallelism and a fixed order per value:
// every logit and hidden unit sums its products j = 0…n−1 from zero
// and then adds its bias, and every gradient coordinate receives the
// file's samples' terms one at a time in caller-given order. The kernels
// may compute several rows and samples per pass (kernels.go), but no
// value's operations change, so two honest workers computing the same
// file produce bit-identical gradients — the property the exact
// majority vote relies on.
package model

import (
	"fmt"
	"math"
	"math/rand"

	"byzshield/internal/data"
	"byzshield/internal/linalg"
)

// Model is a differentiable classifier over flat parameter vectors.
type Model interface {
	// NumParams returns the length of the flat parameter vector.
	NumParams() int
	// InputDim returns the expected feature dimension.
	InputDim() int
	// Classes returns the number of output classes.
	Classes() int
	// Loss returns the mean cross-entropy loss over ds[idx].
	Loss(params []float64, ds *data.Dataset, idx []int) float64
	// SumGradient adds the SUM (not mean) of per-sample loss gradients
	// over ds[idx] into out, which must have length NumParams(). The
	// file gradients g_{t,i} of the protocol are sums (Sec. 2), so the
	// sum is the primitive; callers divide by counts as needed.
	SumGradient(params []float64, ds *data.Dataset, idx []int, out []float64)
	// Predict returns the argmax class for features x.
	Predict(params []float64, x []float64) int
	// Name identifies the architecture in reports.
	Name() string
}

// InitParamsOf returns a deterministic random initialization for m
// using scaled Gaussian entries (He-style scaling by the input
// dimension). Every width narrows the same float64 draw element-wise, so
// an f32 run starts from the rounded image of the vector an f64 run with
// the same seed starts from.
func InitParamsOf[T linalg.Float](m Model, seed int64) []T {
	rng := rand.New(rand.NewSource(seed))
	params := make([]T, m.NumParams())
	scale := math.Sqrt(2.0 / float64(m.InputDim()+1))
	for i := range params {
		params[i] = T(rng.NormFloat64() * scale)
	}
	return params
}

// InitParams and InitParams32 are InitParamsOf at the two widths.
var (
	InitParams   = InitParamsOf[float64]
	InitParams32 = InitParamsOf[float32]
)

// Accuracy returns the top-1 accuracy of m with params over ds — the
// paper's principal evaluation metric.
func Accuracy(m Model, params []float64, ds *data.Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	checkShapes(m, params, ds)
	correct := 0
	for i, x := range ds.X {
		if m.Predict(params, x) == ds.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len())
}

// checkShapes panics on dimension violations shared by the models.
func checkShapes(m Model, params []float64, ds *data.Dataset) {
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

// checkInputLen panics when a sample's feature count is not the
// model's input dimension.
func checkInputLen(m Model, n int) {
	if n != m.InputDim() {
		panic(fmt.Sprintf("model: sample has %d features, want %d", n, m.InputDim()))
	}
}
