package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// ringCSR builds the CSR arrays of a ring of n nodes with chords every
// stride nodes — connected, sparse, clustered spectrum.
func ringCSR(n, stride int) (rowPtr, col []int32) {
	adj := make([][]int32, n)
	link := func(i, j int) {
		adj[i] = append(adj[i], int32(j))
		adj[j] = append(adj[j], int32(i))
	}
	for i := 0; i < n; i++ {
		link(i, (i+1)%n)
	}
	for i := 0; i+stride < n; i += stride {
		link(i, i+stride)
	}
	rowPtr = make([]int32, n+1)
	for i, row := range adj {
		rowPtr[i+1] = rowPtr[i] + int32(len(row))
		col = append(col, row...)
	}
	return rowPtr, col
}

// csrDegrees returns the unit-weight degrees of a CSR adjacency.
func csrDegrees(rowPtr []int32) []float64 {
	deg := make([]float64, len(rowPtr)-1)
	for i := range deg {
		deg[i] = float64(rowPtr[i+1] - rowPtr[i])
	}
	return deg
}

func TestWeightedLaplacianMatchesUnweighted(t *testing.T) {
	// With all weights 1 the weighted operator must be exactly the
	// unweighted one: 1·x is exact, and the evaluation order is the same.
	n := 64
	rowPtr, col := ringCSR(n, 7)
	deg := csrDegrees(rowPtr)
	w := make([]float64, len(col))
	for i := range w {
		w[i] = 1
	}
	var opU, opW CSRLaplacianOp
	if err := opU.Init(n, deg, rowPtr, col, nil, 1); err != nil {
		t.Fatal(err)
	}
	if err := opW.Init(n, deg, rowPtr, col, w, 1); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	x := make([]float64, n)
	a, b := make([]float64, n), make([]float64, n)
	for trial := 0; trial < 5; trial++ {
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		opU.Mul(a, x)
		opW.Mul(b, x)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: weighted op differs at %d: %g vs %g", trial, i, b[i], a[i])
			}
		}
	}
}

func TestWeightedLaplacianEigenvalues(t *testing.T) {
	// Weighted triangle: weights scale both L and D, so L_sym (and its
	// spectrum 0, 3/2, 3/2) is invariant under uniform scaling; a
	// non-uniform weighting must still yield λ_min = 0.
	rowPtr := []int32{0, 2, 4, 6}
	col := []int32{1, 2, 0, 2, 0, 1}
	w := []float64{2, 5, 2, 3, 5, 3}
	deg := []float64{7, 5, 8}
	var op CSRLaplacianOp
	if err := op.Init(3, deg, rowPtr, col, w, 1); err != nil {
		t.Fatal(err)
	}
	var ws LanczosWS
	vals, _, _, err := LanczosSmallest(&ws, op.Mul, 3, 3, rand.New(rand.NewSource(4)), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]) > 1e-10 {
		t.Fatalf("smallest eigenvalue %g, want 0", vals[0])
	}
	if vals[1] < 0.1 || vals[2] > 3 {
		t.Fatalf("spectrum out of the normalized-Laplacian range: %v", vals)
	}
}

func TestWeightedLaplacianRejectsBadInput(t *testing.T) {
	rowPtr := []int32{0, 1, 2}
	col := []int32{1, 0}
	var op CSRLaplacianOp
	if err := op.Init(2, []float64{1, 0}, rowPtr, col, []float64{1, 1}, 1); err == nil {
		t.Fatal("zero degree accepted")
	}
	if err := op.Init(2, []float64{1, 1}, rowPtr, col, []float64{1}, 1); err == nil {
		t.Fatal("weight/col length mismatch accepted")
	}
}

// TestLanczosStopEarlyMatchesDense checks the early-stopping solve against
// the dense eigensolver: the pairs it returns must already be converged,
// and on this well-clustered spectrum it must stop before its step budget.
func TestLanczosStopEarlyMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, k := 150, 8
	a := blockLaplacian(n, 25, rng)
	wantVals, _, err := EigSym(a)
	if err != nil {
		t.Fatal(err)
	}
	var ws LanczosWS
	vals, vecs, steps, err := LanczosSmallest(&ws, denseOp(a), n, k, rand.New(rand.NewSource(7)), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if budget := 10 * k; steps <= 0 || steps >= budget {
		t.Fatalf("steps = %d, want an early stop inside (0, %d)", steps, budget)
	}
	for i := 0; i < k; i++ {
		if math.Abs(vals[i]-wantVals[i]) > 1e-6 {
			t.Fatalf("eigenvalue %d: got %g want %g", i, vals[i], wantVals[i])
		}
	}
	// Residual check ‖A·v − λ·v‖ per returned Ritz pair.
	v := make([]float64, n)
	av := make([]float64, n)
	for j := 0; j < k; j++ {
		for i := 0; i < n; i++ {
			v[i] = vecs.At(i, j)
		}
		denseOp(a)(av, v)
		res := 0.0
		for i := 0; i < n; i++ {
			d := av[i] - vals[j]*v[i]
			res += d * d
		}
		if math.Sqrt(res) > 1e-5 {
			t.Fatalf("Ritz pair %d residual %g", j, math.Sqrt(res))
		}
	}
}

// refLaplacianMul is the reference matvec of L_sym = I − D^{-1/2}·W·D^{-1/2}
// over a CSR adjacency, written out row by row (w nil = unit weights).
func refLaplacianMul(dst, src, deg []float64, rowPtr, col []int32, w []float64) {
	for i := range dst {
		acc := 0.0
		for e := rowPtr[i]; e < rowPtr[i+1]; e++ {
			j := col[e]
			if w == nil {
				acc += 1 / math.Sqrt(deg[j]) * src[j]
			} else {
				acc += w[e] * (1 / math.Sqrt(deg[j])) * src[j]
			}
		}
		dst[i] = src[i] - 1/math.Sqrt(deg[i])*acc
	}
}

func TestCSRLaplacianOpMatchesFuncOp(t *testing.T) {
	n := 300
	rowPtr, col := ringCSR(n, 13)
	rng := rand.New(rand.NewSource(5))
	wts := make([]float64, len(col))
	for i := range wts {
		wts[i] = 1 + rng.Float64()
	}
	wdeg := make([]float64, n)
	for i := 0; i < n; i++ {
		for e := rowPtr[i]; e < rowPtr[i+1]; e++ {
			wdeg[i] += wts[e]
		}
	}
	x := make([]float64, n)
	want, got := make([]float64, n), make([]float64, n)
	for _, c := range []struct {
		name string
		deg  []float64
		w    []float64
	}{{"unit", csrDegrees(rowPtr), nil}, {"weighted", wdeg, wts}} {
		for _, workers := range []int{1, 4} {
			var op CSRLaplacianOp
			if err := op.Init(n, c.deg, rowPtr, col, c.w, workers); err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 3; trial++ {
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				refLaplacianMul(want, x, c.deg, rowPtr, col, c.w)
				op.Mul(got, x)
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("%s workers=%d trial %d: Mul differs at %d: %g vs %g", c.name, workers, trial, i, got[i], want[i])
					}
				}
			}
		}
	}
	var op CSRLaplacianOp
	if err := op.Init(2, []float64{1, 0}, []int32{0, 1, 2}, []int32{1, 0}, nil, 1); err == nil {
		t.Fatal("zero degree accepted")
	}
}
