package matrix

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/parallel"
)

// SymEig is the package's one dense symmetric eigensolver: Householder
// reduction to tridiagonal form followed by implicit-shift QL iteration
// (the EISPACK tred2/tql2 pair), run in place on a single row-major n×n
// buffer. The buffer holds the orthogonal accumulator transposed, so the
// eigenvectors end up in its rows and every inner loop of both stages
// walks a contiguous row instead of striding down a column. The arithmetic
// and its order are those of the column-major formulation, bit for bit.
//
// Storage is retained across Resets: a caller diagonalizing many matrices
// of similar size (the ISC loop re-embedding the remaining network every
// round) allocates only when n grows. A SymEig must not be shared by
// concurrent solves.
type SymEig struct {
	n     int
	a     []float64 // n×n row-major: the input, then the eigenvectors by row
	d, e  []float64 // eigenvalues by row of a; subdiagonal scratch
	order []int32   // rows of a by ascending eigenvalue, ties by row
}

// Reset sizes s for an n×n problem and returns its zeroed row-major buffer
// for the caller to fill with a symmetric matrix. Solve reads only the
// upper triangle (row ≤ column). The buffer and every earlier result are
// invalidated.
func (s *SymEig) Reset(n int) []float64 {
	if n < 0 {
		panic(fmt.Sprintf("matrix: invalid dimension %d", n))
	}
	s.n = n
	s.a = growFloats(s.a, n*n)
	clear(s.a)
	s.d = growFloats(s.d, n)
	s.e = growFloats(s.e, n)
	if cap(s.order) < n {
		s.order = make([]int32, n)
	}
	s.order = s.order[:n]
	return s.a
}

// Solve diagonalizes the matrix in the buffer where it sits. It returns an
// error if the QL iteration fails to converge, which for symmetric input
// essentially never happens.
func (s *SymEig) Solve() error {
	if s.n == 0 {
		return nil
	}
	tridiagonalize(s.a, s.n, s.d, s.e)
	return s.diagonalize()
}

// solveTridiagonal diagonalizes the symmetric tridiagonal matrix with
// diagonal alpha (len ≥ 1) and off-diagonal beta (beta[i] couples i and
// i+1; missing couplings are zero), starting the accumulator from the
// identity — the eigensolve of a Lanczos projection.
func (s *SymEig) solveTridiagonal(alpha, beta []float64) error {
	m := len(alpha)
	a := s.Reset(m)
	for i := 0; i < m; i++ {
		a[i*m+i] = 1
	}
	copy(s.d, alpha)
	clear(s.e)
	copy(s.e[1:], beta)
	return s.diagonalize()
}

// Value returns the j-th smallest eigenvalue of the last solve.
func (s *SymEig) Value(j int) float64 { return s.d[s.order[j]] }

// Vector returns the unit eigenvector of the j-th smallest eigenvalue of
// the last solve. It is a row of s's buffer, valid until the next Reset.
func (s *SymEig) Vector(j int) []float64 {
	r := int(s.order[j]) * s.n
	return s.a[r : r+s.n : r+s.n]
}

// tridiagonalize is the Householder reduction of the symmetric matrix whose
// upper triangle a holds (row-major n×n) to tridiagonal form, accumulating
// the transposed transformation in a: on return d holds the diagonal, e the
// subdiagonal (e[0] == 0), and row j of a the j-th column of the
// orthogonal factor.
func tridiagonalize(a []float64, n int, d, e []float64) {
	for j := 0; j < n; j++ {
		d[j] = a[j*n+n-1]
	}
	for i := n - 1; i > 0; i-- {
		// Scale to avoid under/overflow.
		scale, h := 0.0, 0.0
		for _, x := range d[:i] {
			scale += math.Abs(x)
		}
		ri := a[i*n : i*n+i]
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = a[j*n+i-1]
				a[j*n+i] = 0
				ri[j] = 0
			}
		} else {
			// Generate the Householder vector.
			for k := range d[:i] {
				d[k] /= scale
				h += d[k] * d[k]
			}
			f := d[i-1]
			g := math.Sqrt(h)
			if f > 0 {
				g = -g
			}
			e[i] = scale * g
			h -= f * g
			d[i-1] = f - g
			clear(e[:i])
			// Apply the similarity transformation to the remaining rows.
			for j := 0; j < i; j++ {
				f = d[j]
				ri[j] = f
				rj := a[j*n+j : j*n+i]
				g = e[j] + rj[0]*f
				rj = rj[1:]
				dk, ek := d[j+1:i], e[j+1:i]
				dk, ek = dk[:len(rj)], ek[:len(rj)]
				for k, x := range rj {
					g += x * dk[k]
					ek[k] += x * f
				}
				e[j] = g
			}
			f = 0
			for j := 0; j < i; j++ {
				e[j] /= h
				f += e[j] * d[j]
			}
			hh := f / (h + h)
			for j := 0; j < i; j++ {
				e[j] -= hh * d[j]
			}
			for j := 0; j < i; j++ {
				f = d[j]
				g = e[j]
				rj := a[j*n+j : j*n+i]
				dk, ek := d[j:i], e[j:i]
				dk, ek = dk[:len(rj)], ek[:len(rj)]
				for k := range rj {
					rj[k] -= f*ek[k] + g*dk[k]
				}
				d[j] = a[j*n+i-1]
				a[j*n+i] = 0
			}
		}
		d[i] = h
	}
	// Accumulate the transformations.
	for i := 0; i < n-1; i++ {
		ri := a[i*n : (i+1)*n]
		ri[n-1] = ri[i]
		ri[i] = 1
		next := a[(i+1)*n : (i+1)*n+i+1]
		if h := d[i+1]; h != 0 {
			dk := d[:len(next)]
			for k, x := range next {
				dk[k] = x / h
			}
			for j := 0; j <= i; j++ {
				rj := a[j*n : j*n+len(next)]
				g := 0.0
				for k, x := range next {
					g += x * rj[k]
				}
				for k := range rj {
					rj[k] -= g * dk[k]
				}
			}
		}
		clear(next)
	}
	for j := 0; j < n; j++ {
		d[j] = a[j*n+n-1]
		a[j*n+n-1] = 0
	}
	a[n*n-1] = 1
	e[0] = 0
}

// maxQLIterations bounds the implicit-shift QL sweeps per eigenvalue.
const maxQLIterations = 64

// diagonalize runs the QL algorithm with implicit shifts on the symmetric
// tridiagonal matrix (d, e), applying every rotation to a pair of rows of
// the accumulator, then records the ascending eigenvalue order.
func (s *SymEig) diagonalize() error {
	n, a, d, e := s.n, s.a, s.d, s.e
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0

	f, tst1 := 0.0, 0.0
	const eps = 0x1p-52
	for l := 0; l < n; l++ {
		// Find a small subdiagonal element.
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n {
			if math.Abs(e[m]) <= eps*tst1 {
				break
			}
			m++
		}
		// If m == l, d[l] is already an eigenvalue; otherwise iterate.
		if m > l {
			for iter := 0; ; iter++ {
				if iter >= maxQLIterations {
					return fmt.Errorf("matrix: QL iteration failed to converge for eigenvalue %d", l)
				}
				// Compute the implicit shift.
				g := d[l]
				p := (d[l+1] - g) / (2 * e[l])
				r := math.Hypot(p, 1)
				if p < 0 {
					r = -r
				}
				d[l] = e[l] / (p + r)
				d[l+1] = e[l] * (p + r)
				dl1 := d[l+1]
				h := g - d[l]
				for i := l + 2; i < n; i++ {
					d[i] -= h
				}
				f += h
				// Implicit QL transformation.
				p = d[m]
				c, c2, c3 := 1.0, 1.0, 1.0
				el1 := e[l+1]
				sn, s2 := 0.0, 0.0
				for i := m - 1; i >= l; i-- {
					c3 = c2
					c2 = c
					s2 = sn
					g = c * e[i]
					h = c * p
					r = math.Hypot(p, e[i])
					e[i+1] = sn * r
					sn = e[i] / r
					c = p / r
					p = c*d[i] - sn*g
					d[i+1] = h + sn*(c*g+sn*d[i])
					// Accumulate the rotation on rows i and i+1.
					ri := a[i*n : (i+1)*n]
					ri1 := a[(i+1)*n : (i+2)*n]
					ri1 = ri1[:len(ri)]
					for k, x := range ri {
						y := ri1[k]
						ri1[k] = sn*x + c*y
						ri[k] = c*x - sn*y
					}
				}
				p = -sn * s2 * c3 * el1 * e[l] / dl1
				e[l] = sn * p
				d[l] = c * p
				if math.Abs(e[l]) <= eps*tst1 {
					break
				}
			}
		}
		d[l] += f
		e[l] = 0
	}
	for i := range s.order {
		s.order[i] = int32(i)
	}
	slices.SortStableFunc(s.order, func(x, y int32) int {
		switch {
		case d[x] < d[y]:
			return -1
		case d[y] < d[x]:
			return 1
		}
		return 0
	})
	return nil
}

// columns returns the eigenvalues in ascending order and a new n×n matrix
// whose j-th column is the j-th eigenvector, row i scaled by scale[i] when
// scale is non-nil. Rows are independent, so they fan out over the pool.
func (s *SymEig) columns(scale []float64, workers int) ([]float64, *Dense) {
	n := s.n
	values := make([]float64, n)
	for j := range values {
		values[j] = s.Value(j)
	}
	out := NewDense(n, n)
	parallel.For(workers, n, func(i int) {
		row := out.data[i*n : (i+1)*n]
		for j := range row {
			x := s.a[int(s.order[j])*n+i]
			if scale != nil {
				x = scale[i] * x
			}
			row[j] = x
		}
	})
	return values, out
}

// EigSym computes the full eigendecomposition of a real symmetric matrix.
// It returns the eigenvalues in ascending order and a matrix whose j-th
// column is the unit eigenvector for the j-th eigenvalue. It panics if a is
// not square and returns an error if the QL iteration fails to converge.
//
// The solver reads the lower triangle of a (it is copied transposed into
// the upper triangle SymEig reads), as the column-major formulation did.
func EigSym(a *Dense) (values []float64, vectors *Dense, err error) {
	if a.Rows() != a.Cols() {
		panic(fmt.Sprintf("matrix: EigSym of non-square %d×%d matrix", a.Rows(), a.Cols()))
	}
	n := a.Rows()
	var s SymEig
	buf := s.Reset(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			buf[i*n+j] = a.data[j*n+i]
		}
	}
	if err := s.Solve(); err != nil {
		return nil, nil, err
	}
	values, vectors = s.columns(nil, 1)
	return values, vectors, nil
}

// GeneralizedSymN solves the generalized symmetric eigenproblem
// L·u = λ·D·u where L is symmetric and D is diagonal with strictly
// positive entries (passed as a slice). It returns eigenvalues ascending and
// the matrix U whose columns are the generalized eigenvectors.
//
// The problem is reduced to a standard symmetric one via the congruence
// transform M = D^{-1/2}·L·D^{-1/2}; if M·w = λ·w then u = D^{-1/2}·w.
// This is exactly the relationship between the random-walk and symmetric
// normalized graph Laplacians exploited by spectral clustering.
//
// The O(n²) congruence transform and back-substitution run on a bounded
// worker pool (0 = package default). The row kernels are per-row
// independent, so the result is bit-identical for any worker count; the
// O(n³) tridiagonal eigensolve itself is sequential. It returns an error if
// any diagonal entry of D is not strictly positive or if the eigensolver
// fails to converge.
func GeneralizedSymN(l *Dense, d []float64, workers int) (values []float64, u *Dense, err error) {
	n := l.Rows()
	if l.Cols() != n {
		panic(fmt.Sprintf("matrix: GeneralizedSymN of non-square %d×%d matrix", n, l.Cols()))
	}
	if len(d) != n {
		panic(fmt.Sprintf("matrix: GeneralizedSymN diagonal length %d, want %d", len(d), n))
	}
	invSqrt := make([]float64, n)
	for i, di := range d {
		if di <= 0 || math.IsNaN(di) || math.IsInf(di, 0) {
			return nil, nil, fmt.Errorf("matrix: GeneralizedSymN requires positive diagonal, d[%d]=%g", i, di)
		}
		invSqrt[i] = 1 / math.Sqrt(di)
	}
	var s SymEig
	m := s.Reset(n)
	parallel.For(workers, n, func(i int) {
		row, lrow := m[i*n:(i+1)*n], l.data[i*n:(i+1)*n]
		for j, x := range lrow {
			row[j] = x * invSqrt[i] * invSqrt[j]
		}
	})
	// Enforce the exact symmetry lost to rounding in the upper triangle
	// SymEig reads. Worker i owns row i's upper part.
	parallel.For(workers, n, func(i int) {
		for j := i + 1; j < n; j++ {
			m[i*n+j] = 0.5 * (m[i*n+j] + m[j*n+i])
		}
	})
	if err := s.Solve(); err != nil {
		return nil, nil, err
	}
	values, u = s.columns(invSqrt, workers)
	return values, u, nil
}
