package model

import (
	"fmt"
	"sync"

	"byzshield/internal/data"
)

// MLP is a fully connected network with ReLU hidden layers and a softmax
// output, trained with cross-entropy. The flat parameter layout
// concatenates per-layer [W row-major (out × in) | b (out)] blocks.
//
// Forward/backward working buffers are pooled per call, so concurrent
// SumGradient / Loss / Predict calls from the engine's worker pool
// allocate nothing in steady state.
type MLP struct {
	dims    []int // layer widths: input, hidden..., classes
	scratch sync.Pool
}

// mlpScratch is one call's forward/backward working set: per-layer
// activation and pre-activation buffers plus two delta buffers of the
// maximum layer width.
type mlpScratch struct {
	acts    [][]float64 // acts[0] aliases the input sample
	preacts [][]float64
	delta   []float64
	delta2  []float64
}

// getScratch returns a pooled working set sized for the network.
func (m *MLP) getScratch() *mlpScratch {
	if s, _ := m.scratch.Get().(*mlpScratch); s != nil {
		return s
	}
	nLayers := len(m.dims) - 1
	maxW := 0
	for _, d := range m.dims[1:] {
		if d > maxW {
			maxW = d
		}
	}
	s := &mlpScratch{
		acts:    make([][]float64, nLayers+1),
		preacts: make([][]float64, nLayers),
		delta:   make([]float64, maxW),
		delta2:  make([]float64, maxW),
	}
	for l := 0; l < nLayers; l++ {
		s.acts[l+1] = make([]float64, m.dims[l+1])
		s.preacts[l] = make([]float64, m.dims[l+1])
	}
	return s
}

// NewMLP builds an MLP with the given layer widths. dims must have at
// least 3 entries (input, ≥1 hidden, classes) with the final entry ≥ 2.
func NewMLP(dims ...int) (*MLP, error) {
	if len(dims) < 3 {
		return nil, fmt.Errorf("model: MLP needs input, hidden..., classes; got %v", dims)
	}
	for i, d := range dims {
		if d < 1 {
			return nil, fmt.Errorf("model: MLP layer %d width %d < 1", i, d)
		}
	}
	if dims[len(dims)-1] < 2 {
		return nil, fmt.Errorf("model: MLP needs >= 2 output classes, got %d", dims[len(dims)-1])
	}
	cp := append([]int(nil), dims...)
	return &MLP{dims: cp}, nil
}

// Name implements Model.
func (m *MLP) Name() string { return fmt.Sprintf("mlp%v", m.dims) }

// NumParams implements Model.
func (m *MLP) NumParams() int {
	total := 0
	for layer := 0; layer+1 < len(m.dims); layer++ {
		total += m.dims[layer]*m.dims[layer+1] + m.dims[layer+1]
	}
	return total
}

// InputDim implements Model.
func (m *MLP) InputDim() int { return m.dims[0] }

// Classes implements Model.
func (m *MLP) Classes() int { return m.dims[len(m.dims)-1] }

// layerOffset returns the starting index of layer's [W|b] block.
func (m *MLP) layerOffset(layer int) int {
	off := 0
	for l := 0; l < layer; l++ {
		off += m.dims[l]*m.dims[l+1] + m.dims[l+1]
	}
	return off
}

// forward computes all layer activations into the scratch buffers.
// s.acts[0] is the input; s.acts[i] for i >= 1 is the post-ReLU
// activation of layer i (softmax probabilities for the final layer).
// s.preacts[i] holds layer i+1's pre-activation values (needed for the
// ReLU mask on backprop).
func (m *MLP) forward(params, x []float64, s *mlpScratch) {
	nLayers := len(m.dims) - 1
	s.acts[0] = x
	for layer := 0; layer < nLayers; layer++ {
		in := s.acts[layer]
		inDim := m.dims[layer]
		outDim := m.dims[layer+1]
		off := m.layerOffset(layer)
		w := params[off : off+inDim*outDim]
		b := params[off+inDim*outDim : off+inDim*outDim+outDim]
		pre := s.preacts[layer]
		affine(w, b, in, pre)
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

// Loss implements Model.
func (m *MLP) Loss(params []float64, ds *data.Dataset, idx []int) float64 {
	checkShapes(m, params, ds)
	if len(idx) == 0 {
		return 0
	}
	s := m.getScratch()
	defer m.scratch.Put(s)
	var total float64
	for _, i := range idx {
		m.forward(params, ds.X[i], s)
		total += nllClamp(s.acts[len(s.acts)-1][ds.Y[i]])
	}
	return total / float64(len(idx))
}

// SumGradient implements Model via backpropagation.
func (m *MLP) SumGradient(params []float64, ds *data.Dataset, idx []int, out []float64) {
	checkShapes(m, params, ds)
	checkGradLen(m, len(out))
	nLayers := len(m.dims) - 1
	s := m.getScratch()
	defer m.scratch.Put(s)
	for _, i := range idx {
		x := ds.X[i]
		m.forward(params, x, s)
		// delta at output: p − onehot(y). bufA holds the current delta,
		// bufB the next layer down's; they swap as backprop descends.
		outDim := m.dims[nLayers]
		bufA, bufB := s.delta, s.delta2
		delta := bufA[:outDim]
		copy(delta, s.acts[nLayers])
		delta[ds.Y[i]] -= 1
		for layer := nLayers - 1; layer >= 0; layer-- {
			inDim := m.dims[layer]
			oDim := m.dims[layer+1]
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
				// Propagate delta through W and the ReLU mask.
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

// Predict implements Model.
func (m *MLP) Predict(params []float64, x []float64) int {
	checkInputLen(m, len(x))
	s := m.getScratch()
	defer m.scratch.Put(s)
	m.forward(params, x, s)
	return argmaxT(s.acts[len(s.acts)-1])
}
