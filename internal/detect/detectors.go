package detect

import "math"

// ZScore flags workers whose window-mean outlier score — the mean of
// max(|NormZ|, |CosZ|) over their history ring — exceeds zscoreCutoff.
// Because the per-round z-scores are median/MAD based, a minority of
// colluding Byzantines cannot recenter the statistics around
// themselves; persistent payload crafting (reversed gradients, ALIE's
// µ − z·σ shift, constant matrices) shows up as a sustained score well
// above the honest fleet's.
type ZScore struct{}

// Name implements Detector.
func (ZScore) Name() string { return "zscore" }

// RelGate scales the zscore detector's adaptive cutoff: a worker is
// flagged only when its window score exceeds both zscoreCutoff and
// RelGate × the live fleet's median window score. Near convergence
// every report is sampling noise around a near-zero gradient, the
// whole fleet's scores drift up together, and a fixed cutoff would
// blacklist the statistical edge of an honest fleet; the relative gate
// keeps the threshold meaningful there, while a crafted payload pins
// its score at ZCap far above any honest pack.
const RelGate = 2.0

// Flag implements Detector.
func (ZScore) Flag(st *State, live []int, flags []bool) {
	sc := st.featScratch[:0]
	for _, u := range live {
		sc = append(sc, st.WindowScore(u))
	}
	gate := math.Max(zscoreCutoff, RelGate*medianInPlace(sc))
	st.featScratch = sc[:0]
	for _, u := range live {
		if st.WindowScore(u) > gate {
			flags[u] = true
		}
	}
}

// KMeans is the k-means-over-history detector: each live worker becomes
// the 2-D point (window-mean |NormZ|, window-mean |CosZ|), a
// deterministic 2-means partition splits the fleet, and the minority
// cluster is flagged when it is both clearly separated (center distance
// above kmeansSeparation) and farther from the origin than the majority —
// i.e. a small, persistently anomalous group, not a random split of an
// honest fleet.
type KMeans struct{}

// Name implements Detector.
func (KMeans) Name() string { return "cluster" }

// kmeansIters fixes the Lloyd iteration count so every run of the
// detector performs the identical computation.
const kmeansIters = 8

// Flag implements Detector.
func (KMeans) Flag(st *State, live []int, flags []bool) {
	if len(live) < 4 {
		return // too few points for a meaningful 2-way split
	}
	pts := st.kmPts[:0]
	for _, u := range live {
		nz, cz := st.WindowMeans(u)
		pts = append(pts, [2]float64{nz, cz})
	}
	st.kmPts = pts
	assign := st.kmAssign[:len(pts)]

	// Deterministic init: the extreme points by combined score seed the
	// two centers, so no RNG enters the partition.
	lo, hi := 0, 0
	for i, p := range pts {
		si := p[0] + p[1]
		if si < pts[lo][0]+pts[lo][1] {
			lo = i
		}
		if si > pts[hi][0]+pts[hi][1] {
			hi = i
		}
	}
	if lo == hi {
		return // all points identical: nothing to split
	}
	c0, c1 := pts[lo], pts[hi]
	for it := 0; it < kmeansIters; it++ {
		n0, n1 := 0, 0
		var s0, s1 [2]float64
		for i, p := range pts {
			// Ties assign to cluster 0, keeping the partition stable.
			if dist2(p, c0) <= dist2(p, c1) {
				assign[i] = 0
				s0[0] += p[0]
				s0[1] += p[1]
				n0++
			} else {
				assign[i] = 1
				s1[0] += p[0]
				s1[1] += p[1]
				n1++
			}
		}
		if n0 == 0 || n1 == 0 {
			return // degenerate split: treat as one cluster, flag nobody
		}
		c0 = [2]float64{s0[0] / float64(n0), s0[1] / float64(n0)}
		c1 = [2]float64{s1[0] / float64(n1), s1[1] / float64(n1)}
	}

	n1 := 0
	for _, a := range assign {
		n1 += a
	}
	minority, minC, majC := 1, c1, c0
	minN := n1
	if n0 := len(pts) - n1; n1 > n0 {
		minority, minC, majC = 0, c0, c1
		minN = n0
	}
	// A genuine Byzantine coalition is a strict minority; an even split
	// of the fleet is ambiguous and flags nobody.
	if 2*minN >= len(pts) {
		return
	}
	if math.Sqrt(dist2(minC, majC)) <= kmeansSeparation {
		return
	}
	if minC[0]+minC[1] <= majC[0]+majC[1] {
		return // the small cluster is the calmer one: not an attack
	}
	for i, u := range live {
		if assign[i] == minority {
			flags[u] = true
		}
	}
}

// dist2 returns the squared Euclidean distance of two feature points.
func dist2(a, b [2]float64) float64 {
	dx := a[0] - b[0]
	dy := a[1] - b[1]
	return dx*dx + dy*dy
}
