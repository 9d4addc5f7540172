// Package draco implements DRACO (Chen et al., ICML 2018), the
// exact-recovery redundancy baseline the paper compares against
// (Sec. 1.2, 5.3.1). DRACO replicates each gradient task r times and
// decodes the *exact* attack-free aggregate as long as the number of
// Byzantine workers satisfies r ≥ 2q + 1 — the information-theoretic
// minimum. Two encoder/decoder pairs from the original work are
// provided:
//
//   - Fractional repetition (group) code: workers are split into K/r
//     clone groups; the decoder majority-votes within each group. This
//     is the same placement DETOX uses, so the scheme is a Scheme with
//     Code CodeFractional over assign.FRC; DRACO's guarantee is exact
//     recovery, hence the stronger r ≥ 2q+1 requirement.
//
//   - Cyclic repetition code: worker i holds files i, i+1, ..., i+r−1
//     (mod f) and returns a single linear combination; the decoder
//     recovers the sum of all file gradients exactly by identifying and
//     discarding adversarial equations (here implemented via per-file
//     majority decoding over the cyclic placement, the combinatorial
//     equivalent of the Fourier decoder for the adversarial-detection
//     task).
//
// ByzShield's contrast with DRACO (paper Sec. 5.3.1): DRACO is simply
// *inapplicable* once q > (r−1)/2, while ByzShield degrades gracefully.
// Feasible() exposes that boundary, and the tests demonstrate both the
// exact recovery inside it and the decoder's failure outside it.
package draco

import (
	"fmt"

	"byzshield/internal/assign"
	"byzshield/internal/graph"
	"byzshield/internal/linalg"
	"byzshield/internal/vote"
)

// Code identifies a DRACO encoding.
type Code string

// Supported codes.
const (
	CodeFractional Code = "fractional"
	CodeCyclic     Code = "cyclic"
)

// Scheme is a DRACO configuration: an r-replicated placement plus the
// matching decoder.
type Scheme struct {
	Code       Code
	Assignment *assign.Assignment
}

// Feasible reports whether DRACO's exact-recovery guarantee holds for q
// Byzantine workers: r ≥ 2q + 1 (the information-theoretic minimum the
// paper quotes). Outside this regime DRACO is not applicable.
func (s *Scheme) Feasible(q int) error {
	if s.Assignment.R < 2*q+1 {
		return fmt.Errorf("draco: exact recovery needs r >= 2q+1 = %d, have r = %d",
			2*q+1, s.Assignment.R)
	}
	return nil
}

// NewCyclic builds the cyclic-repetition DRACO scheme: K workers, f = K
// files, worker i holds files {i, i+1, ..., i+r−1} (mod K). Every file
// is replicated exactly r times and each worker holds l = r files.
func NewCyclic(k, r int) (*Scheme, error) {
	if k < 1 || r < 1 || r > k {
		return nil, fmt.Errorf("draco: cyclic needs 1 <= r <= K, got K=%d r=%d", k, r)
	}
	g := graph.NewBipartite(k, k)
	for i := 0; i < k; i++ {
		for j := 0; j < r; j++ {
			g.MustAddEdge(i, (i+j)%k)
		}
	}
	a := &assign.Assignment{
		Scheme: assign.Scheme("draco-cyclic"),
		K:      k, F: k, L: r, R: r, Graph: g,
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return &Scheme{Code: CodeCyclic, Assignment: a}, nil
}

// Decode recovers the per-file gradients from the workers' returned
// replicas by majority decoding, and reports whether recovery was exact
// (every file had an honest strict majority). Input: returned[u][v] is
// worker u's claimed gradient for file v (only assigned files present).
// truth is the oracle used solely to *report* exactness; pass nil to
// skip the check.
func (s *Scheme) Decode(returned []map[int][]float64, truth [][]float64) (files [][]float64, exact bool, err error) {
	a := s.Assignment
	if len(returned) != a.K {
		return nil, false, fmt.Errorf("draco: %d worker reports, want %d", len(returned), a.K)
	}
	files = make([][]float64, a.F)
	exact = true
	for v := 0; v < a.F; v++ {
		replicas := make([][]float64, 0, a.R)
		for _, u := range a.FileWorkers(v) {
			g, ok := returned[u][v]
			if !ok {
				return nil, false, fmt.Errorf("draco: worker %d omitted file %d", u, v)
			}
			replicas = append(replicas, g)
		}
		res, vErr := vote.Majority(replicas)
		if vErr != nil {
			return nil, false, vErr
		}
		files[v] = res.Winner
		if truth != nil {
			if linalg.Dist2(res.Winner, truth[v]) != 0 {
				exact = false
			}
		}
	}
	if truth == nil {
		exact = false
	}
	return files, exact, nil
}

// Aggregate sums the decoded file gradients — DRACO performs plain
// averaging after decoding since, inside its feasibility regime, the
// decoded gradients are exact.
func Aggregate(files [][]float64) []float64 {
	if len(files) == 0 {
		return nil
	}
	out := make([]float64, len(files[0]))
	for _, f := range files {
		linalg.AddInPlace(out, f)
	}
	return out
}
