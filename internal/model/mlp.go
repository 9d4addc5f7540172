package model

import (
	"fmt"
	"sync"

	"byzshield/internal/data"
	"byzshield/internal/linalg"
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

// mlpScratch is one call's forward/backward working set: the per-layer
// activations of up to DenseLanes samples (acts[k][0] aliases sample k's
// input), two delta buffers of the maximum layer width, and the lane
// forward's input and output tiles.
type mlpScratch struct {
	acts    [linalg.DenseLanes][][]float64
	delta   []float64
	delta2  []float64
	tileIn  []float64
	tileOut []float64
}

// getScratch returns a pooled working set sized for the network. Its
// buffers are carved from one slab of floats and one of slice headers,
// so refilling the pool costs three allocations.
func (m *MLP) getScratch() *mlpScratch {
	if s, _ := m.scratch.Get().(*mlpScratch); s != nil {
		return s
	}
	const lanes = linalg.DenseLanes
	maxW, width := 0, 0
	for l, d := range m.dims {
		maxW = max(maxW, d)
		if l > 0 {
			width += d
		}
	}
	f := make([]float64, lanes*width+2*maxW+2*lanes*maxW)
	take := func(n int) []float64 {
		v := f[:n:n]
		f = f[n:]
		return v
	}
	s := &mlpScratch{delta: take(maxW), delta2: take(maxW), tileIn: take(lanes * maxW), tileOut: take(lanes * maxW)}
	hdr := make([][]float64, lanes*len(m.dims))
	for k := range s.acts {
		s.acts[k], hdr = hdr[:len(m.dims):len(m.dims)], hdr[len(m.dims):]
		for l, d := range m.dims[1:] {
			s.acts[k][l+1] = take(d)
		}
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

// layer returns layer's weight matrix (out × in, row-major) and biases
// within v, a vector with the flat parameter layout.
func (m *MLP) layer(v []float64, layer int) (w, b []float64) {
	off, in, out := m.layerOffset(layer), m.dims[layer], m.dims[layer+1]
	return v[off : off+in*out], v[off+in*out : off+in*out+out]
}

// forward computes one sample's layer activations into acts: acts[0]
// is the input, acts[i] for i >= 1 the post-ReLU activation of layer i
// (softmax probabilities for the final layer).
func (m *MLP) forward(params, x []float64, acts [][]float64) {
	nLayers := len(m.dims) - 1
	acts[0] = x
	for layer := 0; layer < nLayers; layer++ {
		w, b := m.layer(params, layer)
		act := acts[layer+1]
		affine(w, b, acts[layer], act)
		if layer == nLayers-1 {
			softmaxT(act)
			continue
		}
		for i, v := range act {
			if v < 0 {
				act[i] = 0
			}
		}
	}
}

// forwardLanes is forward for the samples of group (at most
// DenseLanes), one per lane of linalg.AffineLanes: their inputs are
// transposed into a tile, each layer maps its input tile to the next
// (ReLU included), and every sample's activations are handed back to
// s.acts[k] bit for bit as forward leaves them. Lanes past the group
// compute on zeros and are never read.
func (m *MLP) forwardLanes(params []float64, ds *data.Dataset, group []int, s *mlpScratch) {
	const lanes = linalg.DenseLanes
	in, out := s.tileIn[:m.dims[0]*lanes], s.tileOut
	for k := 0; k < lanes; k++ {
		if k >= len(group) {
			for j := k; j < len(in); j += lanes {
				in[j] = 0
			}
			continue
		}
		x := ds.X[group[k]]
		s.acts[k][0] = x
		for j, v := range x[:m.dims[0]] {
			in[j*lanes+k] = v
		}
	}
	nLayers := len(m.dims) - 1
	for layer := 0; layer < nLayers; layer++ {
		w, b := m.layer(params, layer)
		output := layer == nLayers-1
		out = out[:len(b)*lanes]
		linalg.AffineLanes(w, b, in, out, !output)
		for k := range group {
			act := s.acts[k][layer+1]
			for o := range act {
				act[o] = out[o*lanes+k]
			}
			if output {
				softmaxT(act)
			}
		}
		in, out = out, in[:cap(in)]
	}
}

// forwardFile runs the forward pass of group's samples into s.acts: at
// once through the AVX-512 lanes where linalg runs them, one at a time
// through affine otherwise.
func (m *MLP) forwardFile(params []float64, ds *data.Dataset, group []int, s *mlpScratch) {
	if linalg.SIMD() {
		m.forwardLanes(params, ds, group, s)
		return
	}
	for k, i := range group {
		m.forward(params, ds.X[i], s.acts[k])
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
	nLayers := len(m.dims) - 1
	var total float64
	for g := 0; g < len(idx); g += linalg.DenseLanes {
		group := idx[g:min(g+linalg.DenseLanes, len(idx))]
		m.forwardFile(params, ds, group, s)
		for k, i := range group {
			total += nllClamp(s.acts[k][nLayers][ds.Y[i]])
		}
	}
	return total / float64(len(idx))
}

// SumGradient implements Model via backpropagation. Samples go through
// the forward pass DenseLanes at a time and then back one at a time in
// idx order, so every gradient coordinate still receives the samples'
// terms in that order.
func (m *MLP) SumGradient(params []float64, ds *data.Dataset, idx []int, out []float64) {
	checkShapes(m, params, ds)
	checkGradLen(m, len(out))
	s := m.getScratch()
	defer m.scratch.Put(s)
	for g := 0; g < len(idx); g += linalg.DenseLanes {
		group := idx[g:min(g+linalg.DenseLanes, len(idx))]
		m.forwardFile(params, ds, group, s)
		for k, i := range group {
			m.backward(params, s.acts[k], ds.Y[i], out, s)
		}
	}
}

// backward adds the gradient of one sample — its activations in acts,
// its label y — into out.
func (m *MLP) backward(params []float64, acts [][]float64, y int, out []float64, s *mlpScratch) {
	nLayers := len(m.dims) - 1
	// delta at output: p − onehot(y). bufA holds the current delta, bufB
	// the next layer down's; they swap as backprop descends.
	bufA, bufB := s.delta, s.delta2
	delta := bufA[:m.dims[nLayers]]
	copy(delta, acts[nLayers])
	delta[y] -= 1
	for layer := nLayers - 1; layer >= 0; layer-- {
		wGrad, bGrad := m.layer(out, layer)
		linalg.AddOuter(wGrad, bGrad, delta, acts[layer])
		if layer > 0 {
			// Propagate delta through W and the ReLU mask.
			w, _ := m.layer(params, layer)
			newDelta := bufB[:m.dims[layer]]
			linalg.BackpropReLU(newDelta, delta, w, acts[layer])
			delta = newDelta
			bufA, bufB = bufB, bufA
		}
	}
}

// Predict implements Model.
func (m *MLP) Predict(params []float64, x []float64) int {
	checkInputLen(m, len(x))
	s := m.getScratch()
	defer m.scratch.Put(s)
	m.forward(params, x, s.acts[0])
	return argmaxT(s.acts[0][len(m.dims)-1])
}
