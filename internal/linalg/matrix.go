// Package linalg provides the dense linear algebra used by ByzShield's
// spectral analysis and aggregation pipeline: matrices with
// multiplication/transpose/Gram products, a Jacobi eigensolver for
// symmetric matrices (used to verify the Lemma 2 spectra of the
// normalized bi-adjacency products A·Aᵀ), singular values, and the vector
// statistics (coordinate-wise mean/median/std, norms, distances) that the
// robust aggregators are built from.
//
// Everything is pure Go on float64 with deterministic iteration order so
// that identical inputs always yield bit-identical outputs — a property
// the majority-vote stage of the training protocol relies on.
package linalg

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix allocates a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewMatrixFromRows builds a matrix from row slices, which must all have
// equal length.
func NewMatrixFromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("linalg: ragged rows: row %d has %d cols, want %d", i, len(r), cols))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.Data[i*m.Cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Mul returns m * b as a new matrix.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: dimension mismatch %dx%d * %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.Data[i*m.Cols+k]
			if a == 0 {
				continue
			}
			rowB := b.Data[k*b.Cols : (k+1)*b.Cols]
			rowOut := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j, bv := range rowB {
				rowOut[j] += a * bv
			}
		}
	}
	return out
}

// Scale multiplies every element by s in place and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// Gram returns m * mᵀ (the left Gram matrix), which is symmetric
// positive semidefinite. For a bi-adjacency matrix H of a bipartite
// graph this is the worker-side co-assignment matrix of the paper.
func (m *Matrix) Gram() *Matrix {
	out := NewMatrix(m.Rows, m.Rows)
	for i := 0; i < m.Rows; i++ {
		ri := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j := i; j < m.Rows; j++ {
			rj := m.Data[j*m.Cols : (j+1)*m.Cols]
			var s float64
			for k := range ri {
				s += ri[k] * rj[k]
			}
			out.Data[i*out.Cols+j] = s
			out.Data[j*out.Cols+i] = s
		}
	}
	return out
}

// IsSymmetric reports whether m equals its transpose up to tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// Equal reports element-wise equality up to tol.
func (m *Matrix) Equal(b *Matrix, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i := range m.Data {
		if math.Abs(m.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%8.4f", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
