package matrix

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
)

// MulVecFunc applies a symmetric linear operator: dst = A·src.
// dst and src never alias.
type MulVecFunc func(dst, src []float64)

// LanczosWS holds the reusable storage of a Lanczos solve: the Krylov basis
// (the dominant allocation, steps×n floats), the iteration vectors, the
// reorthogonalization projection scratch, the tridiagonal eigensolver, the
// residual-verification vectors and the returned Ritz pairs. A zero
// LanczosWS is ready to use; buffers grow on demand and are retained
// between solves, so a caller running many solves of similar size (the ISC
// loop re-embedding the remaining network every iteration) pays the large
// allocations once instead of per iteration.
//
// A workspace must not be shared by concurrent solves. Reuse never changes
// results: every buffer is fully overwritten before it is read.
type LanczosWS struct {
	basisBuf []float64
	basis    [][]float64
	v, w     []float64
	alpha    []float64
	beta     []float64
	proj     []float64

	eig    SymEig    // eigensolver of the tridiagonal projection
	ritzZ  []float64 // its k leading eigenvectors, gathered m×k for assembly
	valBuf []float64 // the returned Ritz values
	outBuf []float64
	out    Dense     // the returned Ritz vectors, over outBuf
	resY   []float64 // assembled Ritz vector of the residual verification
	resAY  []float64 // A·y of the residual verification
}

func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// prepare sizes the workspace for a solve of the given step bound and
// dimension and returns the basis row headers (length 0, capacity steps).
func (ws *LanczosWS) prepare(steps, n int) {
	ws.basisBuf = growFloats(ws.basisBuf, steps*n)
	if cap(ws.basis) < steps {
		ws.basis = make([][]float64, 0, steps)
	}
	ws.basis = ws.basis[:0]
	ws.v = growFloats(ws.v, n)
	ws.w = growFloats(ws.w, n)
	ws.alpha = growFloats(ws.alpha, steps)[:0]
	ws.beta = growFloats(ws.beta, steps)[:0]
	ws.proj = growFloats(ws.proj, steps)
}

// early-stop tuning of LanczosSmallest: the first residual check runs
// once the basis can resolve k pairs with headroom, then repeats on a fixed
// cadence. Constants, so the checked step set — and therefore the result —
// depends only on (n, k) and the convergence history, never on workers.
const (
	adaptMinSteps   = 16 // first check at 2k+adaptMinSteps basis vectors
	adaptCheckEvery = 32
	adaptTol        = 1e-6 // β·|z| screen, relative to the spectral scale
	// adaptResTol is the verified-residual stop threshold. The β·|z| bound
	// only screens: with full reorthogonalization the recurrence carries
	// corrections the tridiagonal never sees, so the bound can undershoot
	// the true residual by orders of magnitude. A pair counts as converged
	// only when its assembled Ritz vector satisfies
	// ‖A·y − θ·y‖ ≤ adaptResTol·scale — clustering-grade accuracy.
	adaptResTol = 1e-4
)

// LanczosSmallest computes approximations to the k smallest eigenpairs of
// a symmetric n×n operator given only by matrix-vector products, using the
// Lanczos iteration with full reorthogonalization (two classical
// Gram-Schmidt passes per step) and an eigensolve of the tridiagonal Krylov
// projection. rng seeds the random start vector and any restart direction,
// making results deterministic for a fixed source.
//
// It runs at most min(n, max(4k+40, 10k)) steps, which is accurate for the
// well-separated extremal spectra of clustered graph Laplacians — the use
// case here: spectral clustering of networks too large for the dense O(n³)
// solver. On gapless spectra (dense random matrices, strong expanders) the
// interior of the returned set converges only to clustering-grade accuracy.
// With stopEarly the iteration also ends as soon as the k smallest pairs
// pass the residual check of converged, run at 2k+16 basis vectors and
// every 32 steps after; without it every solve takes the full step budget.
//
// The returned values ascend and the i-th column of vectors is the Ritz
// vector of the i-th value; both live in ws and are valid only until its
// next use. steps reports the Krylov dimension reached. The
// reorthogonalization and the Ritz assembly fan out over a bounded worker
// pool (0 = package default); each kernel keeps a floating-point
// evaluation order fixed by the input alone, and with one worker runs it
// inline, so the solve is bit-identical for any worker count and, given an
// allocation-free mul, allocation-free on one worker once ws has grown.
// The rng is consumed only on the calling goroutine.
func LanczosSmallest(ws *LanczosWS, mul MulVecFunc, n, k int, rng *rand.Rand, workers int, stopEarly bool) (values []float64, vectors *Dense, steps int, err error) {
	if k <= 0 || k > n {
		panic(fmt.Sprintf("matrix: LanczosSmallest k=%d out of (0,%d]", k, n))
	}
	workers = parallel.Resolve(workers)
	maxSteps := 10 * k
	if m := 4*k + 40; m > maxSteps {
		maxSteps = m
	}
	if maxSteps > n {
		maxSteps = n
	}
	ws.prepare(maxSteps, n)
	basis := ws.basis
	alpha := ws.alpha
	beta := ws.beta // beta[i] couples basis[i] and basis[i+1]

	v := ws.v
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	normalize(v)
	firstCheck := 2*k + adaptMinSteps
	w := ws.w
	m := 0
	for j := 0; j < maxSteps; j++ {
		row := ws.basisBuf[j*n : (j+1)*n]
		copy(row, v)
		basis = append(basis, row)
		m = j + 1
		mul(w, v)
		a := dotVec(w, v)
		alpha = append(alpha, a)
		// w ← w − a·v − β_{j−1}·v_{j−1}
		for i := range w {
			w[i] -= a * v[i]
		}
		if j > 0 {
			b := beta[j-1]
			prev := basis[j-1]
			for i := range w {
				w[i] -= b * prev[i]
			}
		}
		orthogonalize(w, basis, ws.proj, workers)
		b := math.Sqrt(dotVec(w, w))
		if j == maxSteps-1 {
			break
		}
		if stopEarly && m >= k && m >= firstCheck && (m-firstCheck)%adaptCheckEvery == 0 &&
			ws.converged(mul, basis, alpha, beta, b, k, n) {
			break
		}
		if b < 1e-13 {
			// Invariant subspace found: restart with a fresh random
			// direction orthogonal to the basis. The tridiagonal coupling
			// to the new block is exactly zero — recording the restart
			// vector's norm instead would corrupt the projection.
			for i := range w {
				w[i] = rng.NormFloat64()
			}
			orthogonalize(w, basis, ws.proj, workers)
			nb := math.Sqrt(dotVec(w, w))
			if nb < 1e-13 {
				// The basis spans the whole reachable space.
				break
			}
			beta = append(beta, 0)
			for i := range w {
				v[i] = w[i] / nb
			}
			continue
		}
		beta = append(beta, b)
		for i := range w {
			v[i] = w[i] / b
		}
	}
	if k > m {
		k = m
	}
	// Eigensolve the m×m tridiagonal projection and assemble the k smallest
	// Ritz pairs into the workspace-owned outputs.
	if err := ws.eig.solveTridiagonal(alpha[:m], beta); err != nil {
		return nil, nil, m, fmt.Errorf("matrix: Lanczos projection eigensolve: %w", err)
	}
	ws.valBuf = growFloats(ws.valBuf, k)
	for i := range ws.valBuf {
		ws.valBuf[i] = ws.eig.Value(i)
	}
	ws.outBuf = growFloats(ws.outBuf, n*k)
	ws.out = Dense{rows: n, cols: k, data: ws.outBuf}
	ws.ritz(ws.out.data, basis, n, k, workers)
	return ws.valBuf, &ws.out, m, nil
}

// converged decides the early stop at basis size m = len(alpha) in two
// phases. First the cheap screen: eigensolve a copy of the tridiagonal
// projection and require every one of the k smallest pairs to pass the
// a-posteriori bound β_m·|z_{m,i}| ≤ adaptTol·scale (in exact arithmetic
// this IS the residual, so an unconverged basis rarely reaches phase two).
// Then the verification: assemble each candidate Ritz vector y = V·z_i and
// require the true residual ‖A·y − θ·y‖ ≤ adaptResTol·scale — the screen
// alone undershoots once reorthogonalization corrections (invisible to the
// tridiagonal) dominate. The assembly is strictly serial and mul is
// bit-identical for any worker count, so the stop decision — and therefore
// the solve — is too.
func (ws *LanczosWS) converged(mul MulVecFunc, basis [][]float64, alpha, beta []float64, bNext float64, k, n int) bool {
	m := len(alpha)
	if ws.eig.solveTridiagonal(alpha, beta) != nil {
		return false
	}
	scale := 0.0
	for _, v := range ws.eig.d[:m] {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		scale = 1
	}
	for c := 0; c < k; c++ {
		if bNext*math.Abs(ws.eig.Vector(c)[m-1]) > adaptTol*scale {
			return false
		}
	}
	// Screen passed: verify the true residuals.
	ws.resY = growFloats(ws.resY, n)
	ws.resAY = growFloats(ws.resAY, n)
	y, ay := ws.resY, ws.resAY
	for c := 0; c < k; c++ {
		clear(y)
		for j, zj := range ws.eig.Vector(c) {
			if zj == 0 {
				continue
			}
			bj := basis[j]
			for i := range y {
				y[i] += zj * bj[i]
			}
		}
		mul(ay, y)
		theta := ws.eig.Value(c)
		res := 0.0
		for i := range y {
			r := ay[i] - theta*y[i]
			res += r * r
		}
		if math.Sqrt(res) > adaptResTol*scale {
			return false
		}
	}
	return true
}

// ritz assembles the Ritz vectors of the k smallest pairs of the projection
// ws.eig solved into out (n×k, row-major): out[row][c] = Σ_j basis[j][row]·
// z_c[j]. The accumulation into each element runs in ascending basis order
// j, but iterates j outer over fixed row chunks so basis rows and the
// gathered eigenvector rows stream contiguously. Chunk boundaries depend
// only on n, and workers ≤ 1 runs the same order inline without the pool
// dispatch, so the result is bit-identical for any worker count.
func (ws *LanczosWS) ritz(out []float64, basis [][]float64, n, k, workers int) {
	m := len(basis)
	ws.ritzZ = growFloats(ws.ritzZ, m*k)
	z := ws.ritzZ
	for c := 0; c < k; c++ {
		for j, x := range ws.eig.Vector(c) {
			z[j*k+c] = x
		}
	}
	clear(out)
	if workers <= 1 {
		for lo := 0; lo < n; lo += ritzChunk {
			ritzRows(out, basis, z, k, lo, min(lo+ritzChunk, n))
		}
		return
	}
	parallel.ForChunks(workers, n, ritzChunk, func(_, lo, hi int) { ritzRows(out, basis, z, k, lo, hi) })
}

// ritzRows accumulates rows [lo, hi) of the Ritz vectors from the basis and
// the gathered m×k eigenvector matrix z, in ascending basis order.
func ritzRows(out []float64, basis [][]float64, z []float64, k, lo, hi int) {
	for j, bj := range basis {
		zrow := z[j*k : (j+1)*k]
		for row := lo; row < hi; row++ {
			b := bj[row]
			vrow := out[row*k : (row+1)*k]
			for col, zv := range zrow {
				vrow[col] += b * zv
			}
		}
	}
}

// orthoChunk, ritzChunk and lapChunk are the fixed element-chunk sizes of
// the blocked kernels: small enough that a chunk of the target vector stays
// cache-resident while every basis row streams past it, large enough to
// amortize scheduling. Being constants, they keep chunk boundaries — and
// therefore floating-point evaluation order — independent of the worker
// count.
const (
	orthoChunk = 512
	ritzChunk  = 64
	lapChunk   = 256
)

// orthogonalize removes from w its components along the (orthonormal) basis
// vectors with two classical Gram-Schmidt passes, using proj (capacity ≥
// len(basis)) as the projection scratch. Within a pass, the dot products
// against distinct basis vectors fan out across the pool (each dot is a
// fixed-order serial sum), then the update sweeps the basis in ascending
// order over fixed-size element chunks, so basis rows stream contiguously.
// Chunk boundaries never depend on the worker count, and workers ≤ 1 runs
// the same order inline without the pool dispatch, so the result is
// bit-identical for any pool size.
func orthogonalize(w []float64, basis [][]float64, proj []float64, workers int) {
	m := len(basis)
	if m == 0 {
		return
	}
	d := proj[:m]
	for pass := 0; pass < 2; pass++ {
		if workers <= 1 {
			gramSchmidtPass(w, basis, d)
			continue
		}
		parallel.For(workers, m, func(j int) { d[j] = dotVec(w, basis[j]) })
		parallel.ForChunks(workers, len(w), orthoChunk, func(_, lo, hi int) { subtractProjections(w, basis, d, lo, hi) })
	}
}

// gramSchmidtPass is one pass of orthogonalize run inline: the projections
// d[j] = w·basis[j], then the update chunk by chunk. It is a function of
// its own so the hot loops do not share registers with the pool closures.
func gramSchmidtPass(w []float64, basis [][]float64, d []float64) {
	for j, bj := range basis {
		d[j] = dotVec(w, bj)
	}
	for lo := 0; lo < len(w); lo += orthoChunk {
		subtractProjections(w, basis, d, lo, min(lo+orthoChunk, len(w)))
	}
}

// subtractProjections applies w −= Σ_j d[j]·basis[j] to elements [lo, hi),
// sweeping the basis in ascending order.
func subtractProjections(w []float64, basis [][]float64, d []float64, lo, hi int) {
	wc := w[lo:hi]
	for j, dj := range d {
		bj := basis[j][lo:hi]
		for i := range wc {
			wc[i] -= dj * bj[i]
		}
	}
}

// CSRLaplacianOp is the matvec of the symmetric normalized Laplacian
// L_sym = I − D^{-1/2}·W·D^{-1/2} of a CSR adjacency. Generalized
// eigenvectors of L·u = λ·D·u are D^{-1/2} times the eigenvectors of
// L_sym, with identical eigenvalues — the relationship spectral clustering
// uses.
//
// Init rebinds the operator to a new (restricted) CSR without allocating
// once its invSqrt buffer has grown, and Mul is a plain method: a caller
// that stores the bound method value once (op := o.Mul) gets a MulVecFunc
// whose per-solve setup performs zero steady-state allocations. Each row
// accumulates its neighbours in ascending CSR order; with one worker the
// product runs inline, and the parallel path splits rows into fixed chunks,
// so results are bit-identical for any worker count.
type CSRLaplacianOp struct {
	n       int
	rowPtr  []int32
	col     []int32
	w       []float64 // nil = unit weights
	invSqrt []float64
	workers int
}

// Init points the operator at an adjacency whose row i has the neighbours
// col[rowPtr[i]:rowPtr[i+1]], with edge weights w parallel to col, or unit
// weights when w is nil. deg must hold the (positive) weighted degrees
// d_i = Σ_j w_ij. workers bounds the pool of Mul (0 = package default).
// The index and weight slices are retained, not copied; invSqrt storage is
// reused across Inits.
func (o *CSRLaplacianOp) Init(n int, deg []float64, rowPtr, col []int32, w []float64, workers int) error {
	if len(deg) != n {
		return fmt.Errorf("matrix: %d degrees for n=%d", len(deg), n)
	}
	if len(rowPtr) != n+1 {
		return fmt.Errorf("matrix: %d row pointers for n=%d", len(rowPtr), n)
	}
	if w != nil && len(w) != len(col) {
		return fmt.Errorf("matrix: %d edge weights for %d columns", len(w), len(col))
	}
	o.invSqrt = growFloats(o.invSqrt, n)
	for i, d := range deg {
		if d <= 0 {
			return fmt.Errorf("matrix: non-positive degree %g at %d", d, i)
		}
		o.invSqrt[i] = 1 / math.Sqrt(d)
	}
	o.n, o.rowPtr, o.col, o.w, o.workers = n, rowPtr, col, w, parallel.Resolve(workers)
	return nil
}

// Mul applies dst = L_sym·src.
func (o *CSRLaplacianOp) Mul(dst, src []float64) {
	if o.workers <= 1 {
		o.rows(dst, src, 0, o.n)
		return
	}
	parallel.ForChunks(o.workers, o.n, lapChunk, func(_, lo, hi int) { o.rows(dst, src, lo, hi) })
}

// rows computes dst[lo:hi]. Each row sums its neighbours in ascending CSR
// order: invSqrt[j]·src[j] for unit weights, w_ij·invSqrt[j]·src[j]
// evaluated left to right otherwise. The two sums are separate functions
// so each hot loop keeps its slices in registers.
func (o *CSRLaplacianOp) rows(dst, src []float64, lo, hi int) {
	if o.w == nil {
		unitLaplacianRows(dst, src, o.invSqrt, o.rowPtr, o.col, lo, hi)
		return
	}
	weightedLaplacianRows(dst, src, o.invSqrt, o.rowPtr, o.col, o.w, lo, hi)
}

func unitLaplacianRows(dst, src, invSqrt []float64, rowPtr, col []int32, lo, hi int) {
	for i := lo; i < hi; i++ {
		acc := 0.0
		for _, j := range col[rowPtr[i]:rowPtr[i+1]] {
			acc += invSqrt[j] * src[j]
		}
		dst[i] = src[i] - invSqrt[i]*acc
	}
}

func weightedLaplacianRows(dst, src, invSqrt []float64, rowPtr, col []int32, w []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		acc := 0.0
		for e, end := rowPtr[i], rowPtr[i+1]; e < end; e++ {
			j := col[e]
			acc += w[e] * invSqrt[j] * src[j]
		}
		dst[i] = src[i] - invSqrt[i]*acc
	}
}

func normalize(v []float64) {
	n := math.Sqrt(dotVec(v, v))
	if n == 0 {
		return
	}
	for i := range v {
		v[i] /= n
	}
}

func dotVec(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
