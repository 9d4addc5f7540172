package linalg

import (
	"fmt"
	"math"
)

// SecondEigenvaluePSD estimates µ1, the second-largest eigenvalue of a
// symmetric PSD matrix whose largest eigenpair is known, by deflating
// (A − λ0·v0·v0ᵀ) and running power iteration. For the normalized
// co-assignment matrices A·Aᵀ of biregular graphs, λ0 = 1 with the
// uniform eigenvector — this gives an O(K²·iters) alternative to the
// O(K³) Jacobi solve for large clusters.
func SecondEigenvaluePSD(m *Matrix, topValue float64, topVector []float64, maxIter int, tol float64) (float64, error) {
	if m.Rows != m.Cols {
		return 0, fmt.Errorf("linalg: second eigenvalue on non-square %dx%d", m.Rows, m.Cols)
	}
	if len(topVector) != m.Rows {
		return 0, fmt.Errorf("linalg: top vector dim %d, want %d", len(topVector), m.Rows)
	}
	v0 := CloneVec(topVector)
	normalize(v0)
	// Deflate: B = A − λ0·v0·v0ᵀ, applied implicitly inside the
	// iteration to avoid materializing the rank-1 update.
	n := m.Rows
	v := make([]float64, n)
	for i := range v {
		v[i] = 1 + 0.001*float64((i*40503)%89)
	}
	orthogonalizeAgainst(v, v0)
	normalize(v)
	w := make([]float64, n)
	if maxIter <= 0 {
		maxIter = 2000
	}
	if tol <= 0 {
		tol = 1e-12
	}
	prev := 0.0
	for iter := 0; iter < maxIter; iter++ {
		matVec(m, v, w)
		AxpyInPlace(w, -topValue*Dot(v0, v), v0)
		lambda := Dot(v, w)
		nw := Norm2(w)
		if nw == 0 {
			return 0, nil
		}
		for i := range w {
			v[i] = w[i] / nw
		}
		orthogonalizeAgainst(v, v0) // re-orthogonalize against drift
		normalize(v)
		if math.Abs(lambda-prev) < tol*math.Max(1, math.Abs(lambda)) {
			return lambda, nil
		}
		prev = lambda
	}
	return prev, nil
}

// matVec computes w = M·v.
func matVec(m *Matrix, v, w []float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, x := range row {
			s += x * v[j]
		}
		w[i] = s
	}
}

// normalize scales v to unit norm (no-op on the zero vector).
func normalize(v []float64) {
	n := Norm2(v)
	if n == 0 {
		return
	}
	ScaleInPlace(v, 1/n)
}

// orthogonalizeAgainst removes the component of v along the unit vector u.
func orthogonalizeAgainst(v, u []float64) {
	AxpyInPlace(v, -Dot(u, v), u)
}
