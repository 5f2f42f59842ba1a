package matrix

import (
	"math/rand"
	"testing"
)

// ringOp builds the CSR normalized Laplacian matvec of a ring graph — the
// same operator shape the clustering flow uses for its sparse embeddings.
func ringOp(t *testing.T, n, workers int) MulVecFunc {
	t.Helper()
	deg := make([]float64, n)
	rowPtr := make([]int32, n+1)
	col := make([]int32, 0, 2*n)
	for i := 0; i < n; i++ {
		deg[i] = 2
		a, b := int32((i+n-1)%n), int32((i+1)%n)
		if a > b {
			a, b = b, a
		}
		col = append(col, a, b)
		rowPtr[i+1] = int32(len(col))
	}
	var op CSRLaplacianOp
	if err := op.Init(n, deg, rowPtr, col, nil, workers); err != nil {
		t.Fatal(err)
	}
	return op.Mul
}

// TestMatvecAllocs pins the sparse matvec's allocation behaviour: on one
// worker a product walks the CSR index slices inline and allocates nothing.
// An earlier implementation allocated a neighbor buffer per row per product.
func TestMatvecAllocs(t *testing.T) {
	op := ringOp(t, 800, 1)
	dst := make([]float64, 800)
	src := make([]float64, 800)
	for i := range src {
		src[i] = float64(i%7) - 3
	}
	allocs := testing.AllocsPerRun(20, func() { op(dst, src) })
	if allocs > 0 {
		t.Fatalf("matvec allocated %.1f times per product, want 0", allocs)
	}
}

// TestLanczosStepAllocs pins the workspace contract of the Lanczos solver:
// once the workspace has grown to the problem size, a full solve on one
// worker — the steps×n basis, the reorthogonalization, the tridiagonal
// eigensolve, the residual checks of the early stop and the returned Ritz
// pairs — allocates nothing, with or without the early stop.
func TestLanczosStepAllocs(t *testing.T) {
	const n, k = 700, 12
	op := ringOp(t, n, 1)
	rng := rand.New(rand.NewSource(1))
	for _, stopEarly := range []bool{false, true} {
		var ws LanczosWS
		allocs := testing.AllocsPerRun(3, func() {
			rng.Seed(1)
			if _, _, _, err := LanczosSmallest(&ws, op, n, k, rng, 1, stopEarly); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Fatalf("stopEarly=%v: Lanczos solve allocated %.1f times on a grown workspace, want 0", stopEarly, allocs)
		}
	}
}

// TestLanczosWSMatchesFresh pins workspace-reuse transparency: a solve on a
// twice-used workspace is bit-identical to a solve on a fresh one.
func TestLanczosWSMatchesFresh(t *testing.T) {
	const n, k = 650, 8
	op := ringOp(t, n, 1)
	for _, stopEarly := range []bool{false, true} {
		var fresh, ws LanczosWS
		fv, fvecs, fsteps, err := LanczosSmallest(&fresh, op, n, k, rand.New(rand.NewSource(9)), 1, stopEarly)
		if err != nil {
			t.Fatal(err)
		}
		// Dirty the workspace with a differently-sized solve first.
		if _, _, _, err := LanczosSmallest(&ws, ringOp(t, 300, 1), 300, 5, rand.New(rand.NewSource(2)), 1, stopEarly); err != nil {
			t.Fatal(err)
		}
		wv, wvecs, wsteps, err := LanczosSmallest(&ws, op, n, k, rand.New(rand.NewSource(9)), 1, stopEarly)
		if err != nil {
			t.Fatal(err)
		}
		if fsteps != wsteps {
			t.Fatalf("stopEarly=%v: fresh solve took %d steps, reused %d", stopEarly, fsteps, wsteps)
		}
		for i := range fv {
			if fv[i] != wv[i] {
				t.Fatalf("stopEarly=%v: value %d: fresh %g reused %g", stopEarly, i, fv[i], wv[i])
			}
		}
		for r := 0; r < n; r++ {
			for c := 0; c < k; c++ {
				if fvecs.At(r, c) != wvecs.At(r, c) {
					t.Fatalf("stopEarly=%v: vector (%d,%d): fresh %g reused %g", stopEarly, r, c, fvecs.At(r, c), wvecs.At(r, c))
				}
			}
		}
	}
}
