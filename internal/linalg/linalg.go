// Package linalg provides the dense linear algebra DenseVLC's precoding
// baseline needs: matrix products, Gaussian elimination with partial
// pivoting, inversion and the Moore–Penrose pseudo-inverse of tall/wide
// matrices via the normal equations. Sizes are tiny (M ≤ receivers), so
// clarity beats asymptotics.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// New allocates a zero matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		//lint:ignore apipanic negative dimensions are a programmer bug, same contract as make with a negative length
		panic(fmt.Sprintf("linalg: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices (all equal length).
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return New(0, 0), nil
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("linalg: ragged row %d: %d cols, want %d", i, len(r), cols)
		}
		copy(m.Data[i*cols:], r)
	}
	return m, nil
}

// At returns element (i, j).
//
//lint:hotpath
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
//
//lint:hotpath
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose.
func (m *Matrix) T() *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns a·b.
func Mul(a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("linalg: dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			aik := a.At(i, k)
			if aik == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += aik * b.At(k, j)
			}
		}
	}
	return out, nil
}

// MulVecInto computes m·x into the caller-owned out (len(out) == m.Rows)
// without allocating.
//
//lint:hotpath
func (m *Matrix) MulVecInto(out, x []float64) error {
	if len(x) != m.Cols || len(out) != m.Rows {
		//lint:ignore hotalloc error construction happens only on the caller-bug path; matched dimensions never reach it
		return fmt.Errorf("linalg: vector of %d into %d against %dx%d", len(x), len(out), m.Rows, m.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		for j := 0; j < m.Cols; j++ {
			s += m.At(i, j) * x[j]
		}
		out[i] = s
	}
	return nil
}

// ErrSingular reports a (numerically) singular system.
var ErrSingular = errors.New("linalg: singular matrix")

// Solve solves A·x = b by Gaussian elimination with partial pivoting.
// A must be square; it is not modified.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("linalg: Solve needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("linalg: rhs of %d for %dx%d", len(b), n, n)
	}
	// Augmented working copy.
	w := a.Clone()
	x := append([]float64(nil), b...)

	for col := 0; col < n; col++ {
		// Partial pivot.
		piv := col
		best := math.Abs(w.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(w.At(r, col)); v > best {
				piv, best = r, v
			}
		}
		if best == 0 || math.IsNaN(best) {
			return nil, ErrSingular
		}
		if piv != col {
			for j := 0; j < n; j++ {
				w.Data[col*n+j], w.Data[piv*n+j] = w.Data[piv*n+j], w.Data[col*n+j]
			}
			x[col], x[piv] = x[piv], x[col]
		}
		// Eliminate below.
		inv := 1 / w.At(col, col)
		for r := col + 1; r < n; r++ {
			f := w.At(r, col) * inv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				w.Data[r*n+j] -= f * w.At(col, j)
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= w.At(i, j) * x[j]
		}
		x[i] = s / w.At(i, i)
	}
	return x, nil
}

// Inverse returns A⁻¹ for square A.
func Inverse(a *Matrix) (*Matrix, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("linalg: Inverse needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	out := New(n, n)
	e := make([]float64, n)
	for col := 0; col < n; col++ {
		for i := range e {
			e[i] = 0
		}
		e[col] = 1
		x, err := Solve(a, e)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			out.Set(i, col, x[i])
		}
	}
	return out, nil
}

// PseudoInverse returns the Moore–Penrose pseudo-inverse of a wide matrix
// (Rows ≤ Cols, full row rank): A⁺ = Aᵀ·(A·Aᵀ)⁻¹, the right inverse used by
// zero-forcing precoders. A ridge term λ·I regularises near-singular
// channels (λ = 0 gives pure ZF; λ > 0 gives a regularised/MMSE-flavoured
// inverse).
func PseudoInverse(a *Matrix, ridge float64) (*Matrix, error) {
	if a.Rows > a.Cols {
		return nil, fmt.Errorf("linalg: PseudoInverse expects a wide matrix, got %dx%d", a.Rows, a.Cols)
	}
	at := a.T()
	gram, err := Mul(a, at) // Rows×Rows
	if err != nil {
		return nil, err
	}
	for i := 0; i < gram.Rows; i++ {
		gram.Data[i*gram.Cols+i] += ridge
	}
	inv, err := Inverse(gram)
	if err != nil {
		return nil, err
	}
	return Mul(at, inv) // Cols×Rows
}
