package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/matrix"
)

// TestLanczosMatvecAllocs pins the fix for the sparse embedding's hot loop:
// the CSR-backed neighbor iterator performs no per-call work beyond walking
// a shared row slice, so one full normalized-Laplacian matvec allocates at
// most the bounded dispatch residue. (The previous iterator collected each
// bitset row into a fresh buffer and probed a global→local map on every
// call — an allocation per row per matvec, millions per Lanczos solve.)
func TestLanczosMatvecAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	w := graph.RandomSparse(300, 0.95, rng)
	csr := w.SymmetrizedCSR()
	lap := csr.LaplacianDegrees()
	g2l := make([]int32, w.N())
	var active []int
	for i := range g2l {
		if lap[i] > 0 {
			g2l[i] = int32(len(active))
			active = append(active, i)
		} else {
			g2l[i] = -1
		}
	}
	var sc scratch
	local := csr.RestrictTo(active, g2l, &sc.local)
	rowPtr, col := local.Arrays()
	op, err := matrix.NormalizedLaplacianCSRN(local.N(), local.LaplacianDegrees(), rowPtr, col, 1)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, local.N())
	src := make([]float64, local.N())
	for i := range src {
		src[i] = float64(i%5) - 2
	}
	allocs := testing.AllocsPerRun(20, func() { op(dst, src) })
	if allocs > 2 {
		t.Fatalf("embedding matvec allocated %.1f times per product, want ≤ 2", allocs)
	}
}

// TestWarmEmbeddingAllocs pins the multilevel-mode flat rounds: once the
// scratch has grown, a full warm-started Lanczos embedding — operator init,
// seeded start vector, adaptive solve with verified residuals, Ritz store,
// D^{-1/2} back-map — runs without steady-state allocations. The first call
// is the warm-up AllocsPerRun performs before measuring.
func TestWarmEmbeddingAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated 600-node Lanczos solves")
	}
	rng := rand.New(rand.NewSource(43))
	w := graph.RandomSparse(600, 0.985, rng)
	sc, _ := mlScratchFor(1024)
	kHint := 8
	allocs := testing.AllocsPerRun(3, func() {
		emb, err := newSpectralEmbedding(w, kHint, 1, sc)
		if err != nil {
			t.Fatal(err)
		}
		if emb == nil || emb.cols < 2 {
			t.Fatal("embedding missing")
		}
	})
	if allocs > 0 {
		t.Fatalf("warm Lanczos embedding allocated %.1f times per solve, want 0", allocs)
	}
}

// TestDenseEmbeddingAllocs pins the dense path the paper's testbenches take
// every ISC round: once the scratch has grown, the embedding — D^{-1/2}·L·
// D^{-1/2} written into the scratch eigensolver's buffer and diagonalized
// where it sits — and a point set cut from it allocate nothing. One
// n_a×n_a buffer reused across rounds is what keeps ISC's peak memory flat.
// The first call is the warm-up AllocsPerRun performs before measuring.
func TestDenseEmbeddingAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	w := graph.RandomSparse(300, 0.95, rng)
	var sc scratch
	const k = 8
	allocs := testing.AllocsPerRun(3, func() {
		emb, err := newSpectralEmbedding(w, k, 1, &sc)
		if err != nil {
			t.Fatal(err)
		}
		if emb.eig == nil || len(emb.active) > lanczosCutoff {
			t.Fatalf("dense path not taken for %d active neurons", len(emb.active))
		}
		if pts := emb.points(k, &sc); len(pts) != len(emb.active) || len(pts[0]) != k {
			t.Fatal("point set has the wrong shape")
		}
	})
	if allocs > 0 {
		t.Fatalf("dense embedding allocated %.1f times per solve, want 0", allocs)
	}
}

// TestRefineAllocs pins the per-level boundary refinement: with the
// mlScratch grown, a full refine pass (gain scan, candidate sort, ordered
// commits) is allocation-free on the serial path.
func TestRefineAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	w := graph.RandomClustered(320, 16, 0.6, 0.02, rng)
	const maxSize = 24
	sc, st := mlScratchFor(48)
	if _, err := multilevelCluster(w, maxSize, 1, sc); err != nil {
		t.Fatal(err)
	}
	ml := sc.mlSc
	g := ml.graphs[0]
	part := ml.parts[0][:g.N]
	fied := ml.fiedlers[0][:g.N]
	allocs := testing.AllocsPerRun(10, func() {
		refine(g, part, fied, maxSize, mlRefinePasses, 1, ml, st)
	})
	if allocs > 0 {
		t.Fatalf("refine allocated %.1f times per call, want 0", allocs)
	}
}

// TestEmbeddingPathEquivalence pins the CSR rework against the paths it
// replaced: the dense-path restricted Laplacian built from CSR rows must
// produce the same clustering as before, and the Lanczos path must engage
// for networks above the cutoff.
func TestEmbeddingPathEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	w := graph.RandomSparse(150, 0.9, rng)
	a, err := MSCN(w, 6, rand.New(rand.NewSource(1)), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MSCN(w, 6, rand.New(rand.NewSource(1)), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("%d vs %d clusters across worker counts", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("cluster %d sizes differ: %d vs %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("cluster %d member %d differs: %d vs %d", i, j, a[i][j], b[i][j])
			}
		}
	}
}
