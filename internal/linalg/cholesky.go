package linalg

import (
	"errors"
	"math"
)

// ErrNotPositiveDefinite is returned when Cholesky factorization encounters a
// non-positive pivot, meaning the input matrix is not (numerically) positive
// definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix A = L L^T.
//
// The factor is stored packed (row-major lower triangle, row i occupying
// data[i(i+1)/2 : i(i+1)/2+i+1]), so appending a row is a pure append: Extend
// grows the factorization by one dimension in O(n^2) without touching the
// existing entries. That is the primitive behind the GP surrogate's
// incremental Observe path (see internal/gp).
type Cholesky struct {
	n    int
	data []float64 // packed lower triangle, including diagonal
}

// rowStart returns the packed offset of row i.
func rowStart(i int) int { return i * (i + 1) / 2 }

// NewCholesky factors the symmetric matrix a (only the lower triangle is
// read). It returns ErrNotPositiveDefinite if a pivot becomes non-positive.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	c := &Cholesky{}
	if err := c.Factor(a); err != nil {
		return nil, err
	}
	return c, nil
}

// Factor replaces the factorization with that of the symmetric matrix a
// (only the lower triangle is read), reusing the receiver's storage when it
// is large enough — the hyper-parameter search factors one matrix size many
// times. On error the receiver holds a partial factor and must be factored
// again before use.
func (c *Cholesky) Factor(a *Matrix) error {
	if a.Rows != a.Cols {
		panic("linalg: Cholesky of non-square matrix")
	}
	n := a.Rows
	if cap(c.data) < rowStart(n)+n {
		c.data = make([]float64, 0, rowStart(n)+n)
	}
	c.n, c.data = 0, c.data[:0]
	for i := 0; i < n; i++ {
		if err := c.Extend(a.Data[i*a.Cols:i*a.Cols+i], a.At(i, i)); err != nil {
			return err
		}
	}
	return nil
}

// Size returns the dimension of the factored matrix.
func (c *Cholesky) Size() int { return c.n }

// Extend grows the factorization by one dimension: if the current factor
// represents A = L L^T, the extended factor represents the bordered matrix
//
//	[ A    col ]
//	[ col'  diag ]
//
// col must hold the n off-diagonal entries of the new row. The update runs in
// O(n^2) — one forward solve L w = col plus the new pivot — and appends
// exactly the row a from-scratch factorization of the bordered matrix would
// produce, bit for bit (both compute row i of L as a forward substitution
// against rows 0..i-1 in the same order). It returns ErrNotPositiveDefinite,
// leaving the factor unchanged, when the bordered matrix is not positive
// definite.
func (c *Cholesky) Extend(col []float64, diag float64) error {
	if len(col) != c.n {
		panic("linalg: Extend column length mismatch")
	}
	base := rowStart(c.n)
	if cap(c.data) < base+c.n+1 {
		grown := make([]float64, base, 2*(base+c.n+1))
		copy(grown, c.data)
		c.data = grown
	}
	row := c.data[base : base+c.n+1 : base+c.n+1]
	c.data = c.data[:base+c.n+1]
	d := diag
	for j := 0; j < c.n; j++ {
		s := col[j]
		prev := c.data[rowStart(j) : rowStart(j)+j]
		for k, v := range prev {
			s -= v * row[k]
		}
		w := s / c.data[rowStart(j)+j]
		row[j] = w
		d -= w * w
	}
	if d <= 0 || math.IsNaN(d) {
		c.data = c.data[:base]
		return ErrNotPositiveDefinite
	}
	row[c.n] = math.Sqrt(d)
	c.n++
	return nil
}

// Clone returns an independent copy of the factorization; extending the copy
// leaves the original untouched.
func (c *Cholesky) Clone() *Cholesky {
	return &Cholesky{n: c.n, data: append([]float64(nil), c.data...)}
}

// At returns the factor entry L[i,j] (j <= i).
func (c *Cholesky) At(i, j int) float64 {
	if i < 0 || i >= c.n || j < 0 || j > i {
		panic("linalg: Cholesky.At index out of lower triangle")
	}
	return c.data[rowStart(i)+j]
}

// L returns a copy of the lower-triangular factor.
func (c *Cholesky) L() *Matrix {
	m := NewMatrix(c.n, c.n)
	for i := 0; i < c.n; i++ {
		copy(m.Data[i*c.n:i*c.n+i+1], c.data[rowStart(i):rowStart(i)+i+1])
	}
	return m
}

// SolveVec solves A x = b for x using the factorization.
func (c *Cholesky) SolveVec(b []float64) []float64 {
	return c.SolveVecInto(make([]float64, c.n), b)
}

// SolveVecInto solves A x = b into dst, which must have length Size and may
// alias b. It allocates nothing — the hyper-parameter search's likelihood
// evaluations depend on that.
func (c *Cholesky) SolveVecInto(dst, b []float64) []float64 {
	if len(b) != c.n || len(dst) != c.n {
		panic("linalg: SolveVecInto dimension mismatch")
	}
	c.ForwardSolveInto(dst, b)
	c.BackSolveInto(dst, dst)
	return dst
}

// ForwardSolve solves L y = b.
func (c *Cholesky) ForwardSolve(b []float64) []float64 {
	return c.ForwardSolveInto(make([]float64, c.n), b)
}

// ForwardSolveInto solves L y = b into dst (len Size, may alias b).
func (c *Cholesky) ForwardSolveInto(dst, b []float64) []float64 {
	if len(b) != c.n || len(dst) != c.n {
		panic("linalg: ForwardSolveInto dimension mismatch")
	}
	for i := 0; i < c.n; i++ {
		dst[i] = c.ForwardStep(dst, i, b[i])
	}
	return dst
}

// ForwardStep returns entry i of the solution of L y = b, given its first i
// entries in y[:i] and b[i]: (b[i] - Σ_k L[i,k] y[k]) / L[i,i]. It is the
// one row of ForwardSolveInto, with its exact operation order, so a caller
// that extends a solve one row at a time as the factor grows gets the bits
// a full solve would produce.
func (c *Cholesky) ForwardStep(y []float64, i int, bi float64) float64 {
	s := bi
	base := rowStart(i)
	for k, v := range c.data[base : base+i] {
		s -= v * y[k]
	}
	return s / c.data[base+i]
}

// BackSolve solves L^T x = y.
func (c *Cholesky) BackSolve(y []float64) []float64 {
	return c.BackSolveInto(make([]float64, c.n), y)
}

// BackSolveInto solves L^T x = y into dst (len Size, may alias y).
func (c *Cholesky) BackSolveInto(dst, y []float64) []float64 {
	if len(y) != c.n || len(dst) != c.n {
		panic("linalg: BackSolveInto dimension mismatch")
	}
	for i := c.n - 1; i >= 0; i-- {
		s := y[i]
		off := rowStart(i+1) + i // L[i+1, i] in packed layout
		for k := i + 1; k < c.n; k++ {
			s -= c.data[off] * dst[k]
			off += k + 1 // advance one row down the same column
		}
		dst[i] = s / c.data[rowStart(i)+i]
	}
	return dst
}

// LogDet returns log det(A) = 2 Σ log L_ii.
func (c *Cholesky) LogDet() float64 {
	s := 0.0
	for i := 0; i < c.n; i++ {
		s += math.Log(c.data[rowStart(i)+i])
	}
	return 2 * s
}

// SolveMatrix solves A X = B column by column.
func (c *Cholesky) SolveMatrix(b *Matrix) *Matrix {
	if b.Rows != c.n {
		panic("linalg: SolveMatrix dimension mismatch")
	}
	out := NewMatrix(b.Rows, b.Cols)
	col := make([]float64, c.n)
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < c.n; i++ {
			col[i] = b.At(i, j)
		}
		x := c.SolveVec(col)
		for i := 0; i < c.n; i++ {
			out.Set(i, j, x[i])
		}
	}
	return out
}
