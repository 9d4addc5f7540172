package linalg

import (
	"math"
	"testing"
)

// powerIteration estimates the dominant eigenpair of a symmetric matrix
// by power iteration from a deterministic start vector. It is the
// reference top pair TestSecondEigenvaluePSDMatchesJacobi deflates; the
// two tests below check it against known spectra.
func powerIteration(m *Matrix) (value float64, vector []float64) {
	v := make([]float64, m.Rows)
	for i := range v {
		v[i] = 1 + 0.001*float64((i*2654435761)%97)
	}
	normalize(v)
	w := make([]float64, m.Rows)
	prev := 0.0
	for iter := 0; iter < 1000; iter++ {
		matVec(m, v, w)
		lambda := Dot(v, w)
		nw := Norm2(w)
		if nw == 0 {
			return 0, v // v is in the null space: eigenvalue 0
		}
		for i := range w {
			v[i] = w[i] / nw
		}
		if math.Abs(lambda-prev) < 1e-12*math.Max(1, math.Abs(lambda)) {
			return lambda, v
		}
		prev = lambda
	}
	return prev, v
}

func TestPowerIterationDiagonal(t *testing.T) {
	m := NewMatrixFromRows([][]float64{{5, 0, 0}, {0, 2, 0}, {0, 0, 1}})
	val, vec := powerIteration(m)
	if math.Abs(val-5) > 1e-9 {
		t.Errorf("dominant eigenvalue = %v, want 5", val)
	}
	if math.Abs(math.Abs(vec[0])-1) > 1e-6 {
		t.Errorf("dominant eigenvector = %v, want ±e0", vec)
	}
}

func TestPowerIterationMatchesJacobi(t *testing.T) {
	m := NewMatrixFromRows([][]float64{
		{4, 1, 0.5},
		{1, 3, 2},
		{0.5, 2, 5},
	})
	val, _ := powerIteration(m)
	eig, err := SymmetricEigen(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(val-eig[0]) > 1e-8 {
		t.Errorf("power %v vs jacobi %v", val, eig[0])
	}
}

func TestSecondEigenvaluePSDKnown(t *testing.T) {
	// J_4/4 has eigenvalues 1 (uniform vector) and 0 (×3).
	n := 4
	m := NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = 0.25
	}
	uniform := make([]float64, n)
	for i := range uniform {
		uniform[i] = 1
	}
	mu1, err := SecondEigenvaluePSD(m, 1, uniform, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mu1) > 1e-9 {
		t.Errorf("µ1 = %v, want 0", mu1)
	}
}

func TestSecondEigenvaluePSDMatchesJacobi(t *testing.T) {
	// Build a PSD matrix with a known dominant pair: A = Gram of a
	// structured matrix, dominant pair from power iteration.
	base := NewMatrixFromRows([][]float64{
		{1, 2, 0, 1},
		{0, 1, 3, 1},
		{2, 0, 1, 1},
		{1, 1, 1, 0},
	})
	m := base.Gram()
	top, topVec := powerIteration(m)
	mu1, err := SecondEigenvaluePSD(m, top, topVec, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	eig, err := SymmetricEigen(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mu1-eig[1]) > 1e-6 {
		t.Errorf("deflated power µ1 = %v vs jacobi %v", mu1, eig[1])
	}
}

func TestSecondEigenvaluePSDErrors(t *testing.T) {
	m := NewMatrix(2, 2)
	if _, err := SecondEigenvaluePSD(NewMatrix(2, 3), 1, []float64{1, 1}, 0, 0); err == nil {
		t.Error("non-square accepted")
	}
	if _, err := SecondEigenvaluePSD(m, 1, []float64{1}, 0, 0); err == nil {
		t.Error("wrong vector dim accepted")
	}
}
