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
	scratch   sync.Pool // *[]float64 of length 2·classes
	scratch32 sync.Pool // *[]float32 of length 2·classes
}

// getProbs returns a pooled float64 probability buffer: two samples'
// classes, for the pairwise kernels.
func (s *Softmax) getProbs() *[]float64 {
	if p, _ := s.scratch.Get().(*[]float64); p != nil {
		return p
	}
	buf := make([]float64, 2*s.classes)
	return &buf
}

// getProbs32 returns a pooled float32 probability buffer.
func (s *Softmax) getProbs32() *[]float32 {
	if p, _ := s.scratch32.Get().(*[]float32); p != nil {
		return p
	}
	buf := make([]float32, 2*s.classes)
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

// softmaxLossT is the width-generic mean cross-entropy loss. It takes
// the samples in pairs, so one pass over W serves two of them; probs
// holds two samples' classes.
func softmaxLossT[T linalg.Float](dim, classes int, params []T, x [][]T, y, idx []int, probs []T) float64 {
	w, b := params[:classes*dim], params[classes*dim:]
	p0, p1 := probs[:classes], probs[classes:2*classes]
	var total float64
	k := 0
	for ; k+1 < len(idx); k += 2 {
		i0, i1 := idx[k], idx[k+1]
		affine2(w, b, x[i0], x[i1], p0, p1)
		softmaxT(p0)
		softmaxT(p1)
		total += nllClamp(p0[y[i0]])
		total += nllClamp(p1[y[i1]])
	}
	if k < len(idx) {
		i := idx[k]
		affine(w, b, x[i], p0)
		softmaxT(p0)
		total += nllClamp(p0[y[i]])
	}
	return total / float64(len(idx))
}

// softmaxGradT is the width-generic summed gradient:
// ∂L/∂W[c] = (p_c − 1{c=y})·x, ∂L/∂b[c] = p_c − 1{c=y}, over samples.
// Like the loss it takes the samples in pairs; every output coordinate
// still receives the samples' terms one at a time in idx order.
func softmaxGradT[T linalg.Float](dim, classes int, params []T, x [][]T, y, idx []int, out, probs []T) {
	w, b := params[:classes*dim], params[classes*dim:]
	gw, gb := out[:classes*dim], out[classes*dim:]
	d0, d1 := probs[:classes], probs[classes:2*classes]
	k := 0
	for ; k+1 < len(idx); k += 2 {
		i0, i1 := idx[k], idx[k+1]
		x0, x1 := x[i0], x[i1]
		affine2(w, b, x0, x1, d0, d1)
		softmaxT(d0)
		softmaxT(d1)
		d0[y[i0]] -= 1
		d1[y[i1]] -= 1
		addOuter2(gw, d0, d1, x0, x1)
		for c := range gb {
			gb[c] = gb[c] + d0[c] + d1[c]
		}
	}
	if k < len(idx) {
		i := idx[k]
		affine(w, b, x[i], d0)
		softmaxT(d0)
		d0[y[i]] -= 1
		addOuter(gw, d0, x[i])
		for c := range gb {
			gb[c] += d0[c]
		}
	}
}

// addOuter adds d[c]·x into row c of g (row-major, len(x) columns) for
// every c < len(d), four rows per pass over x.
func addOuter[T linalg.Float](g, d, x []T) {
	n := len(x)
	c := 0
	for ; c+4 <= len(d); c += 4 {
		a0, a1, a2, a3 := d[c], d[c+1], d[c+2], d[c+3]
		if tiny(a0) || tiny(a1) || tiny(a2) || tiny(a3) {
			for k := c; k < c+4; k++ {
				addRow(g[k*n:][:n], d[k], x)
			}
			continue
		}
		r0 := g[c*n:][:n]
		r1 := g[(c+1)*n:][:n]
		r2 := g[(c+2)*n:][:n]
		r3 := g[(c+3)*n:][:n]
		for j, xv := range x {
			r0[j] += a0 * xv
			r1[j] += a1 * xv
			r2[j] += a2 * xv
			r3[j] += a3 * xv
		}
	}
	for ; c < len(d); c++ {
		addRow(g[c*n:][:n], d[c], x)
	}
}

// addOuter2 adds d0[c]·x0 + d1[c]·x1 into row c of g for every
// c < len(d0), four rows per pass over the two samples. Each coordinate
// becomes (g + d0[c]·x0[j]) + d1[c]·x1[j]: the first sample's update,
// then the second's.
func addOuter2[T linalg.Float](g, d0, d1, x0, x1 []T) {
	n := len(x0)
	x1 = x1[:n]
	d1 = d1[:len(d0)]
	c := 0
	for ; c+4 <= len(d0); c += 4 {
		a0, a1, a2, a3 := d0[c], d0[c+1], d0[c+2], d0[c+3]
		b0, b1, b2, b3 := d1[c], d1[c+1], d1[c+2], d1[c+3]
		if tiny(a0) || tiny(a1) || tiny(a2) || tiny(a3) ||
			tiny(b0) || tiny(b1) || tiny(b2) || tiny(b3) {
			for k := c; k < c+4; k++ {
				addRow(g[k*n:][:n], d0[k], x0)
				addRow(g[k*n:][:n], d1[k], x1)
			}
			continue
		}
		r0 := g[c*n:][:n]
		r1 := g[(c+1)*n:][:n]
		r2 := g[(c+2)*n:][:n]
		r3 := g[(c+3)*n:][:n]
		for j, u := range x0 {
			v := x1[j]
			r0[j] = r0[j] + a0*u + b0*v
			r1[j] = r1[j] + a1*u + b1*v
			r2[j] = r2[j] + a2*u + b2*v
			r3[j] = r3[j] + a3*u + b3*v
		}
	}
	for ; c < len(d0); c++ {
		addRow(g[c*n:][:n], d0[c], x0)
		addRow(g[c*n:][:n], d1[c], x1)
	}
}

// addRow adds a·x into row.
func addRow[T linalg.Float](row []T, a T, x []T) {
	row = row[:len(x)]
	if tiny(a) {
		// a is below float32's normal range, and a float32 multiply with
		// a subnormal operand takes a microcode assist on x86, ~50 ns a
		// coordinate. The float64 product of two float32 values is exact
		// and normal, so rounding it to T once gives the T product's
		// bits; at T = float64 it is the same multiply.
		for j, xv := range x {
			row[j] += T(float64(a) * float64(xv))
		}
		return
	}
	for j, xv := range x {
		row[j] += a * xv
	}
}

// tiny reports whether a is non-zero and below float32's normal range:
// a class difference addRow multiplies in float64.
func tiny[T linalg.Float](a T) bool {
	d := math.Abs(float64(a))
	return d != 0 && d < 0x1p-126
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
	checkInputLen(s, len(x))
	pp := s.getProbs()
	defer s.scratch.Put(pp)
	logits := (*pp)[:s.classes]
	affine(params[:s.classes*s.dim], params[s.classes*s.dim:], x, logits)
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
	checkInputLen(s, len(x))
	pp := s.getProbs32()
	defer s.scratch32.Put(pp)
	logits := (*pp)[:s.classes]
	affine(params[:s.classes*s.dim], params[s.classes*s.dim:], x, logits)
	return argmaxT(logits)
}
