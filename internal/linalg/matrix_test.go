package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewMatrixShape(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("NewMatrix(3,4) shape wrong: %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("NewMatrix not zeroed")
		}
	}
}

func TestNewMatrixFromRows(t *testing.T) {
	m := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape = %dx%d, want 3x2", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 || m.At(0, 0) != 1 {
		t.Error("element values wrong")
	}
}

func TestNewMatrixFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged rows did not panic")
		}
	}()
	NewMatrixFromRows([][]float64{{1, 2}, {3}})
}

func TestMulKnown(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewMatrixFromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := NewMatrixFromRows([][]float64{{19, 22}, {43, 50}})
	if !c.Equal(want, 0) {
		t.Fatalf("Mul = %v, want %v", c, want)
	}
}

// identity returns the n x n identity matrix.
func identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

func TestMulIdentity(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if !a.Mul(identity(3)).Equal(a, 0) {
		t.Error("A*I != A")
	}
	if !identity(2).Mul(a).Equal(a, 0) {
		t.Error("I*A != A")
	}
}

func TestMulDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	NewMatrix(2, 3).Mul(NewMatrix(2, 3))
}

// transpose returns mᵀ as a new matrix.
func transpose(m *Matrix) *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*out.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

func TestGramMatchesExplicitProduct(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 2, 3}, {0, -1, 4}})
	gram := a.Gram()
	explicit := a.Mul(transpose(a))
	if !gram.Equal(explicit, 1e-12) {
		t.Errorf("Gram != A*Aᵀ:\n%v\nvs\n%v", gram, explicit)
	}
	if !gram.IsSymmetric(0) {
		t.Error("Gram not symmetric")
	}
}

func TestScaleAndClone(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b := a.Clone()
	b.Scale(2)
	if a.At(0, 0) != 1 {
		t.Error("Scale on clone mutated original")
	}
	if b.At(1, 1) != 8 {
		t.Errorf("Scale: got %v, want 8", b.At(1, 1))
	}
}

func TestSymmetricEigenDiagonal(t *testing.T) {
	m := NewMatrixFromRows([][]float64{{3, 0, 0}, {0, 1, 0}, {0, 0, 2}})
	vals, err := SymmetricEigen(m)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, 1}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-10 {
			t.Errorf("eigen[%d] = %v, want %v", i, vals[i], want[i])
		}
	}
}

func TestSymmetricEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	m := NewMatrixFromRows([][]float64{{2, 1}, {1, 2}})
	vals, err := SymmetricEigen(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-3) > 1e-10 || math.Abs(vals[1]-1) > 1e-10 {
		t.Errorf("eigen = %v, want [3 1]", vals)
	}
}

func TestSymmetricEigenAllOnes(t *testing.T) {
	// J_n has eigenvalues n (once) and 0 (n-1 times).
	n := 6
	m := NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = 1
	}
	vals, err := SymmetricEigen(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-float64(n)) > 1e-9 {
		t.Errorf("largest eigen of J_%d = %v, want %d", n, vals[0], n)
	}
	for i := 1; i < n; i++ {
		if math.Abs(vals[i]) > 1e-9 {
			t.Errorf("eigen[%d] = %v, want 0", i, vals[i])
		}
	}
}

func TestSymmetricEigenTraceInvariant(t *testing.T) {
	m := NewMatrixFromRows([][]float64{
		{4, 1, 0.5, -1},
		{1, 3, 2, 0},
		{0.5, 2, 5, 1.5},
		{-1, 0, 1.5, 2},
	})
	vals, err := SymmetricEigen(m)
	if err != nil {
		t.Fatal(err)
	}
	var trace, sum float64
	for i := 0; i < 4; i++ {
		trace += m.At(i, i)
	}
	for _, v := range vals {
		sum += v
	}
	if math.Abs(trace-sum) > 1e-9 {
		t.Errorf("eigen sum %v != trace %v", sum, trace)
	}
}

func TestSymmetricEigenRejectsNonSymmetric(t *testing.T) {
	m := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if _, err := SymmetricEigen(m); err == nil {
		t.Error("non-symmetric matrix accepted")
	}
	if _, err := SymmetricEigen(NewMatrix(2, 3)); err == nil {
		t.Error("non-square matrix accepted")
	}
}

func TestGroupEigenvalues(t *testing.T) {
	vals := []float64{1.0, 0.3333333333, 0.3333333334, 0.3333333332, 0, 1e-13}
	groups := GroupEigenvalues(vals, 1e-6)
	if len(groups) != 3 {
		t.Fatalf("groups = %v, want 3 groups", groups)
	}
	if groups[0].Multiplicity != 1 || math.Abs(groups[0].Value-1) > 1e-9 {
		t.Errorf("group 0 = %+v", groups[0])
	}
	if groups[1].Multiplicity != 3 || math.Abs(groups[1].Value-1.0/3) > 1e-6 {
		t.Errorf("group 1 = %+v", groups[1])
	}
	if groups[2].Multiplicity != 2 || math.Abs(groups[2].Value) > 1e-6 {
		t.Errorf("group 2 = %+v", groups[2])
	}
	if GroupEigenvalues(nil, 1e-6) != nil {
		t.Error("empty input should return nil")
	}
}

// Property: the Gram matrix of any matrix has non-negative eigenvalues
// (positive semidefiniteness) and its trace equals the squared Frobenius
// norm of the original.
func TestQuickGramPSD(t *testing.T) {
	prop := func(raw [6]float64) bool {
		m := NewMatrixFromRows([][]float64{
			{clampF(raw[0]), clampF(raw[1]), clampF(raw[2])},
			{clampF(raw[3]), clampF(raw[4]), clampF(raw[5])},
		})
		g := m.Gram()
		vals, err := SymmetricEigen(g)
		if err != nil {
			return false
		}
		var frob float64
		for _, v := range m.Data {
			frob += v * v
		}
		var sum float64
		for _, v := range vals {
			if v < -1e-8*math.Max(1, frob) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-frob) <= 1e-6*math.Max(1, frob)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// clampF maps arbitrary float64s (incl. NaN/Inf from quick) to [-10, 10].
func clampF(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 1
	}
	return math.Mod(x, 10)
}

func BenchmarkGram25(b *testing.B) {
	m := NewMatrix(25, 25)
	for i := range m.Data {
		m.Data[i] = float64(i % 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Gram()
	}
}

func BenchmarkSymmetricEigen25(b *testing.B) {
	m := NewMatrix(25, 25)
	for i := 0; i < 25; i++ {
		for j := 0; j <= i; j++ {
			v := float64((i*j)%5) + 1
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SymmetricEigen(m); err != nil {
			b.Fatal(err)
		}
	}
}
