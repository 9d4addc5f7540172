package linalg

import (
	"fmt"
	"math"
	"sort"
)

// SymmetricEigen computes all eigenvalues of a symmetric matrix using the
// cyclic Jacobi rotation method. The returned eigenvalues are sorted in
// decreasing order. Jacobi is quadratically convergent and, for the small
// co-assignment matrices that arise from task-assignment graphs
// (K ≤ a few hundred), both fast and numerically robust.
func SymmetricEigen(m *Matrix) ([]float64, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("linalg: eigen of non-square %dx%d matrix", m.Rows, m.Cols)
	}
	if !m.IsSymmetric(1e-9) {
		return nil, fmt.Errorf("linalg: eigen of non-symmetric matrix")
	}
	n := m.Rows
	if n == 0 {
		return nil, nil
	}
	a := m.Clone()
	const maxSweeps = 100
	const tol = 1e-12
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagonalNorm(a)
		if off < tol {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a.At(p, q)
				if math.Abs(apq) < tol/float64(n*n) {
					continue
				}
				app := a.At(p, p)
				aqq := a.At(q, q)
				// Compute the Jacobi rotation that zeroes a[p][q].
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				applyJacobiRotation(a, p, q, c, s)
			}
		}
	}
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = a.At(i, i)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	return vals, nil
}

// applyJacobiRotation performs A <- Jᵀ A J where J rotates coordinates
// (p, q) by angle with cosine c and sine s, preserving symmetry.
func applyJacobiRotation(a *Matrix, p, q int, c, s float64) {
	n := a.Rows
	for k := 0; k < n; k++ {
		if k == p || k == q {
			continue
		}
		akp := a.At(k, p)
		akq := a.At(k, q)
		a.Set(k, p, c*akp-s*akq)
		a.Set(p, k, c*akp-s*akq)
		a.Set(k, q, s*akp+c*akq)
		a.Set(q, k, s*akp+c*akq)
	}
	app := a.At(p, p)
	aqq := a.At(q, q)
	apq := a.At(p, q)
	a.Set(p, p, c*c*app-2*s*c*apq+s*s*aqq)
	a.Set(q, q, s*s*app+2*s*c*apq+c*c*aqq)
	a.Set(p, q, 0)
	a.Set(q, p, 0)
}

// offDiagonalNorm returns the Frobenius norm of the off-diagonal part.
func offDiagonalNorm(a *Matrix) float64 {
	var s float64
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if i != j {
				v := a.At(i, j)
				s += v * v
			}
		}
	}
	return math.Sqrt(s)
}

// EigenvalueMultiplicity groups eigenvalues that are equal up to tol and
// returns (value, multiplicity) pairs sorted by decreasing value. The
// representative value of each group is the group mean, which suppresses
// roundoff jitter when comparing against exact rational spectra such as
// those of Lemma 2.
type EigenvalueMultiplicity struct {
	Value        float64
	Multiplicity int
}

// GroupEigenvalues clusters a sorted-or-unsorted eigenvalue slice into
// (value, multiplicity) groups with tolerance tol.
func GroupEigenvalues(vals []float64, tol float64) []EigenvalueMultiplicity {
	if len(vals) == 0 {
		return nil
	}
	sorted := append([]float64(nil), vals...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	var groups []EigenvalueMultiplicity
	start := 0
	for i := 1; i <= len(sorted); i++ {
		if i == len(sorted) || math.Abs(sorted[i]-sorted[start]) > tol {
			var sum float64
			for _, v := range sorted[start:i] {
				sum += v
			}
			groups = append(groups, EigenvalueMultiplicity{
				Value:        sum / float64(i-start),
				Multiplicity: i - start,
			})
			start = i
		}
	}
	return groups
}
