package model

import (
	"fmt"
	"math"
	"sync"

	"byzshield/internal/data"
	"byzshield/internal/linalg"
)

// Softmax is multinomial logistic regression: logits = W·x + b with
// cross-entropy loss. The flat parameter layout is
// [W row-major (classes × dim) | b (classes)].
//
// The forward/backward core is generic over the precision tier
// (float64 and float32 instantiations share one code path), so the
// model implements both Model and Model32. Per-call probability
// scratch is pooled per width, so concurrent SumGradient / Loss /
// Predict calls from the engine's worker pool allocate nothing in
// steady state.
type Softmax struct {
	dim       int
	classes   int
	scratch   sync.Pool // *[]float64 of length classes
	scratch32 sync.Pool // *[]float32 of length classes
}

// getProbs returns a pooled float64 probability buffer.
func (s *Softmax) getProbs() *[]float64 {
	if p, _ := s.scratch.Get().(*[]float64); p != nil {
		return p
	}
	buf := make([]float64, s.classes)
	return &buf
}

// getProbs32 returns a pooled float32 probability buffer.
func (s *Softmax) getProbs32() *[]float32 {
	if p, _ := s.scratch32.Get().(*[]float32); p != nil {
		return p
	}
	buf := make([]float32, s.classes)
	return &buf
}

// NewSoftmax constructs a softmax regression model.
func NewSoftmax(dim, classes int) (*Softmax, error) {
	if dim < 1 || classes < 2 {
		return nil, fmt.Errorf("model: softmax needs dim >= 1 and classes >= 2, got %d/%d", dim, classes)
	}
	return &Softmax{dim: dim, classes: classes}, nil
}

// Name implements Model.
func (s *Softmax) Name() string { return fmt.Sprintf("softmax(%dx%d)", s.classes, s.dim) }

// NumParams implements Model.
func (s *Softmax) NumParams() int { return s.classes*s.dim + s.classes }

// InputDim implements Model.
func (s *Softmax) InputDim() int { return s.dim }

// Classes implements Model.
func (s *Softmax) Classes() int { return s.classes }

// softmaxLogitsT computes W·x + b into out (length classes).
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

// softmaxLossT is the width-generic mean cross-entropy loss.
func softmaxLossT[T linalg.Float](dim, classes int, params []T, x [][]T, y, idx []int, probs []T) float64 {
	var total float64
	for _, i := range idx {
		softmaxLogitsT(dim, classes, params, x[i], probs)
		softmaxT(probs)
		total += nllClamp(probs[y[i]])
	}
	return total / float64(len(idx))
}

// softmaxGradT is the width-generic summed gradient:
// ∂L/∂W[c] = (p_c − 1{c=y})·x, ∂L/∂b[c] = p_c − 1{c=y}, over samples.
func softmaxGradT[T linalg.Float](dim, classes int, params []T, x [][]T, y, idx []int, out, probs []T) {
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
				// diff is below float32's normal range, and a float32
				// multiply with a subnormal operand takes a microcode
				// assist on x86, ~50 ns a coordinate. The float64 product
				// of two float32 values is exact and normal, so rounding
				// it to T once gives the T product's bits; at T = float64
				// it is the same multiply.
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

// Loss implements Model.
func (s *Softmax) Loss(params []float64, ds *data.Dataset, idx []int) float64 {
	checkShapes(s, params, ds)
	if len(idx) == 0 {
		return 0
	}
	pp := s.getProbs()
	defer s.scratch.Put(pp)
	return softmaxLossT(s.dim, s.classes, params, ds.X, ds.Y, idx, *pp)
}

// SumGradient implements Model: ∂L/∂W[c] = (p_c − 1{c=y})·x,
// ∂L/∂b[c] = p_c − 1{c=y}, summed over samples.
func (s *Softmax) SumGradient(params []float64, ds *data.Dataset, idx []int, out []float64) {
	checkShapes(s, params, ds)
	checkGradLen(s, len(out))
	pp := s.getProbs()
	defer s.scratch.Put(pp)
	softmaxGradT(s.dim, s.classes, params, ds.X, ds.Y, idx, out, *pp)
}

// Predict implements Model.
func (s *Softmax) Predict(params []float64, x []float64) int {
	pp := s.getProbs()
	defer s.scratch.Put(pp)
	logits := *pp
	softmaxLogitsT(s.dim, s.classes, params, x, logits)
	return argmaxT(logits)
}

// Loss32 implements Model32.
func (s *Softmax) Loss32(params []float32, ds *data.Dataset32, idx []int) float64 {
	checkShapes32(s, params, ds)
	if len(idx) == 0 {
		return 0
	}
	pp := s.getProbs32()
	defer s.scratch32.Put(pp)
	return softmaxLossT(s.dim, s.classes, params, ds.X, ds.Y, idx, *pp)
}

// SumGradient32 implements Model32.
func (s *Softmax) SumGradient32(params []float32, ds *data.Dataset32, idx []int, out []float32) {
	checkShapes32(s, params, ds)
	checkGradLen(s, len(out))
	pp := s.getProbs32()
	defer s.scratch32.Put(pp)
	softmaxGradT(s.dim, s.classes, params, ds.X, ds.Y, idx, out, *pp)
}

// Predict32 implements Model32.
func (s *Softmax) Predict32(params []float32, x []float32) int {
	pp := s.getProbs32()
	defer s.scratch32.Put(pp)
	logits := *pp
	softmaxLogitsT(s.dim, s.classes, params, x, logits)
	return argmaxT(logits)
}
