// Package aggregate implements the gradient aggregation rules evaluated
// in the paper: ByzShield's coordinate-wise median, plus the baselines —
// mean, trimmed mean, median-of-means (Minsker 2015), Krum and
// Multi-Krum (Blanchard et al. 2017 / Damaskinos et al. 2019), Bulyan
// (El Mhamdi et al. 2018), signSGD with majority vote (Bernstein et al.
// 2019), geometric median (Weiszfeld), and Auror (Shen et al. 2016).
//
// Every rule implements Aggregator. Rules that are only valid when the
// number of adversarial inputs is small enough (Multi-Krum needs
// n ≥ 2c+3, Bulyan n ≥ 4c+3) expose the precondition through Feasible,
// mirroring the applicability limits the paper runs into in Sec. 6
// ("Bulyan cannot be paired with DETOX for q ≥ 1 ...").
package aggregate

import (
	"fmt"
	"math"

	"byzshield/internal/linalg"
)

// Aggregator combines a set of gradient vectors into one update vector.
type Aggregator interface {
	// Aggregate reduces the vectors to a single vector. All inputs have
	// equal dimension; implementations must not modify them.
	Aggregate(grads [][]float64) ([]float64, error)
	// Name returns a stable identifier used in experiment reports.
	Name() string
}

// ByzAware is implemented by aggregators whose validity depends on the
// assumed number of corrupted inputs.
type ByzAware interface {
	// Feasible reports whether the rule is applicable with n total
	// inputs of which c may be corrupted.
	Feasible(n, c int) error
}

// Mean is plain averaging — provably non-robust (a single Byzantine
// worker controls the output; Blanchard et al. 2017).
type Mean struct{}

// Name implements Aggregator.
func (Mean) Name() string { return "mean" }

// Aggregate implements Aggregator.
func (m Mean) Aggregate(grads [][]float64) ([]float64, error) {
	if len(grads) == 0 {
		return nil, fmt.Errorf("aggregate: mean of zero gradients")
	}
	return newOut(m, grads)
}

// Median is the coordinate-wise median — ByzShield's default second
// stage (applied to the f majority-vote winners).
type Median struct{}

// Name implements Aggregator.
func (Median) Name() string { return "median" }

// Aggregate implements Aggregator.
func (m Median) Aggregate(grads [][]float64) ([]float64, error) {
	if len(grads) == 0 {
		return nil, fmt.Errorf("aggregate: median of zero gradients")
	}
	return newOut(m, grads)
}

// TrimmedMean removes the Trim largest and Trim smallest values per
// coordinate and averages the rest (mean-around-median family; Yin et
// al. 2018, Xie et al. 2018).
type TrimmedMean struct {
	Trim int
}

// Name implements Aggregator.
func (t TrimmedMean) Name() string { return fmt.Sprintf("trimmed-mean(%d)", t.Trim) }

// Feasible implements ByzAware: need n > 2·Trim and Trim ≥ c.
func (t TrimmedMean) Feasible(n, c int) error {
	if t.Trim < c {
		return fmt.Errorf("aggregate: trimmed mean trims %d < %d possible corruptions", t.Trim, c)
	}
	if n <= 2*t.Trim {
		return fmt.Errorf("aggregate: trimmed mean needs n > 2·trim, got n=%d trim=%d", n, t.Trim)
	}
	return nil
}

// Aggregate implements Aggregator.
func (t TrimmedMean) Aggregate(grads [][]float64) ([]float64, error) {
	n := len(grads)
	if n == 0 {
		return nil, fmt.Errorf("aggregate: trimmed mean of zero gradients")
	}
	if n <= 2*t.Trim {
		return nil, fmt.Errorf("aggregate: trimmed mean needs n > 2·trim, got n=%d trim=%d", n, t.Trim)
	}
	return newOut(t, grads)
}

// MedianOfMeans splits the inputs into Groups contiguous groups,
// averages within each group and takes the coordinate-wise median of
// the group means (Minsker 2015; DETOX's default second stage).
type MedianOfMeans struct {
	Groups int
}

// Name implements Aggregator.
func (m MedianOfMeans) Name() string { return fmt.Sprintf("median-of-means(%d)", m.Groups) }

// Aggregate implements Aggregator.
func (m MedianOfMeans) Aggregate(grads [][]float64) ([]float64, error) {
	n := len(grads)
	if n == 0 {
		return nil, fmt.Errorf("aggregate: median-of-means of zero gradients")
	}
	g := m.Groups
	if g <= 0 || g > n {
		return nil, fmt.Errorf("aggregate: median-of-means needs 1 <= groups <= n, got groups=%d n=%d", g, n)
	}
	return newOut(m, grads)
}

// SignSGD reduces each input to its coordinate-wise sign and outputs the
// majority sign per coordinate (±1, or 0 on ties), as in signSGD with
// majority vote. It is the one sign semantics of the system: workers
// send ordinary gradients, and the engine applies the learning rate to
// the voted sign vector directly, with no per-sample rescale, on every
// plane (in process, public API, TCP fleet).
type SignSGD struct{}

// Name implements Aggregator.
func (SignSGD) Name() string { return "signsgd" }

// Aggregate implements Aggregator.
func (s SignSGD) Aggregate(grads [][]float64) ([]float64, error) {
	if len(grads) == 0 {
		return nil, fmt.Errorf("aggregate: signSGD of zero gradients")
	}
	return newOut(s, grads)
}

// GeometricMedian computes the vector minimizing the sum of Euclidean
// distances to the inputs using Weiszfeld's algorithm (Chen et al. 2017
// use the geometric median of means; this is the core primitive).
type GeometricMedian struct {
	// MaxIter bounds the Weiszfeld iterations (default 100).
	MaxIter int
	// Tol is the convergence threshold on the iterate movement
	// (default 1e-10).
	Tol float64
}

// Name implements Aggregator.
func (GeometricMedian) Name() string { return "geometric-median" }

// Aggregate implements Aggregator.
func (g GeometricMedian) Aggregate(grads [][]float64) ([]float64, error) {
	n := len(grads)
	if n == 0 {
		return nil, fmt.Errorf("aggregate: geometric median of zero gradients")
	}
	maxIter := g.MaxIter
	if maxIter == 0 {
		maxIter = 100
	}
	tol := g.Tol
	if tol == 0 {
		tol = 1e-10
	}
	cur := linalg.MeanVec(grads)
	for iter := 0; iter < maxIter; iter++ {
		var wsum float64
		next := make([]float64, len(cur))
		coincident := false
		for _, p := range grads {
			dist := linalg.Dist2(cur, p)
			if dist < 1e-15 {
				// Iterate sits on a data point; Weiszfeld's update is
				// undefined — accept the point (it is a valid medianoid).
				coincident = true
				break
			}
			w := 1 / dist
			wsum += w
			linalg.AxpyInPlace(next, w, p)
		}
		if coincident {
			break
		}
		linalg.ScaleInPlace(next, 1/wsum)
		if linalg.Dist2(next, cur) < tol {
			cur = next
			break
		}
		cur = next
	}
	return cur, nil
}

// MeanAroundMedian averages, per coordinate, the Near values closest to
// the coordinate median (the "mean-around-median" rule of Xie et al.
// 2018 — distinct from TrimmedMean, which trims by rank from both ends
// rather than by distance to the median).
type MeanAroundMedian struct {
	// Near is the number of closest-to-median values averaged; 0 means
	// ⌈n/2⌉.
	Near int
}

// Name implements Aggregator.
func (m MeanAroundMedian) Name() string { return fmt.Sprintf("mean-around-median(%d)", m.Near) }

// Aggregate implements Aggregator.
func (m MeanAroundMedian) Aggregate(grads [][]float64) ([]float64, error) {
	if len(grads) == 0 {
		return nil, fmt.Errorf("aggregate: mean-around-median of zero gradients")
	}
	return newOut(m, grads)
}

// Auror partitions each coordinate's values into two clusters with 1-D
// 2-means; when the cluster centers are farther apart than Threshold,
// the smaller cluster is discarded and the larger one is averaged
// (Shen et al. 2016).
type Auror struct {
	// Threshold is the minimum center separation that triggers
	// discarding the minority cluster. Zero means always discard.
	Threshold float64
}

// Name implements Aggregator.
func (Auror) Name() string { return "auror" }

// Aggregate implements Aggregator.
func (a Auror) Aggregate(grads [][]float64) ([]float64, error) {
	if len(grads) == 0 {
		return nil, fmt.Errorf("aggregate: auror of zero gradients")
	}
	return newOut(a, grads)
}

// aurorSorted runs 1-D 2-means on the pre-sorted values and returns the
// average of the majority cluster when centers are separated by more
// than threshold, else the average of everything. prefix and prefixSq
// are caller-provided scratch of length n+1. Generic over the element
// width; split costs compare in float64 for both widths (an identity
// conversion on the float64 tier).
func aurorSorted[T linalg.Float](sorted []T, threshold float64, prefix, prefixSq []T) T {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	// Optimal 1-D 2-means is a split point in sorted order: choose the
	// split minimizing within-cluster sum of squares via prefix sums.
	prefix[0], prefixSq[0] = 0, 0
	for i, v := range sorted {
		prefix[i+1] = prefix[i] + v
		prefixSq[i+1] = prefixSq[i] + v*v
	}
	sse := func(lo, hi int) T { // [lo, hi)
		cnt := T(hi - lo)
		if cnt == 0 {
			return 0
		}
		sum := prefix[hi] - prefix[lo]
		sq := prefixSq[hi] - prefixSq[lo]
		return sq - sum*sum/cnt
	}
	bestSplit, bestCost := 1, math.Inf(1)
	for s := 1; s < n; s++ {
		if c := float64(sse(0, s) + sse(s, n)); c < bestCost {
			bestCost = c
			bestSplit = s
		}
	}
	loMean := (prefix[bestSplit] - prefix[0]) / T(bestSplit)
	hiMean := (prefix[n] - prefix[bestSplit]) / T(n-bestSplit)
	if math.Abs(float64(hiMean-loMean)) > threshold {
		// Discard the smaller cluster.
		if bestSplit >= n-bestSplit {
			return loMean
		}
		return hiMean
	}
	return prefix[n] / T(n)
}
