package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// Worker-invariance tests: every parallel kernel in this package must be
// bit-identical to its serial form, because each output element is computed
// by exactly one goroutine with a fixed, worker-independent operation order.
// They compare IEEE-754 bit patterns: == would accept a +0/−0 flip and
// reject two equal NaNs.

// sameBits reports whether a and b have identical IEEE-754 representations.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func randomLaplacian(n int, seed int64) (*Dense, []float64) {
	rng := rand.New(rand.NewSource(seed))
	l := NewDense(n, n)
	deg := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.15 {
				w := 1 + rng.Float64()
				l.Set(i, j, -w)
				l.Set(j, i, -w)
				deg[i] += w
				deg[j] += w
			}
		}
	}
	for i := 0; i < n; i++ {
		if deg[i] == 0 {
			deg[i] = 1 // keep D invertible for the generalized solve
		}
		l.Set(i, i, deg[i])
	}
	return l, deg
}

func TestGeneralizedSymWorkerInvariance(t *testing.T) {
	l, d := randomLaplacian(60, 3)
	v1, u1, err := GeneralizedSymN(l.Clone(), append([]float64(nil), d...), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 13} {
		vn, un, err := GeneralizedSymN(l.Clone(), append([]float64(nil), d...), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range v1 {
			if !sameBits(vn[i], v1[i]) {
				t.Fatalf("workers=%d: eigenvalue[%d] = %g, serial %g", workers, i, vn[i], v1[i])
			}
		}
		for i := 0; i < u1.Rows(); i++ {
			for j := 0; j < u1.Cols(); j++ {
				if !sameBits(un.At(i, j), u1.At(i, j)) {
					t.Fatalf("workers=%d: U[%d,%d] = %g, serial %g (must be bit-identical)",
						workers, i, j, un.At(i, j), u1.At(i, j))
				}
			}
		}
	}
}

func TestLanczosWorkerInvariance(t *testing.T) {
	const n, k = 200, 12
	l, deg := randomLaplacian(n, 7)
	forEach := func(i int, fn func(j int, w float64)) {
		for j := 0; j < n; j++ {
			if i != j && l.At(i, j) != 0 {
				fn(j, -l.At(i, j))
			}
		}
	}
	run := func(workers int) ([]float64, *Dense) {
		mul, err := NormalizedLaplacianOpN(n, deg, forEach, workers)
		if err != nil {
			t.Fatal(err)
		}
		v, u, err := LanczosSmallestN(mul, n, k, rand.New(rand.NewSource(11)), workers)
		if err != nil {
			t.Fatal(err)
		}
		return v, u
	}
	v1, u1 := run(1)
	for _, workers := range []int{2, 4, 9} {
		vn, un := run(workers)
		for i := range v1 {
			if !sameBits(vn[i], v1[i]) {
				t.Fatalf("workers=%d: ritz value[%d] = %g, serial %g", workers, i, vn[i], v1[i])
			}
		}
		for i := 0; i < u1.Rows(); i++ {
			for j := 0; j < u1.Cols(); j++ {
				if !sameBits(un.At(i, j), u1.At(i, j)) {
					t.Fatalf("workers=%d: vector[%d,%d] = %g, serial %g (must be bit-identical)",
						workers, i, j, un.At(i, j), u1.At(i, j))
				}
			}
		}
	}
}
