package kmeans

import (
	"math/rand"
	"testing"
)

// TestRunWorkerInvariance is the package-level determinism contract: the
// clustering result — assignments, centroids, and iteration count — is
// bit-identical for every worker count, because the assignment step is
// per-point independent and the centroid update accumulates each cluster's
// members in ascending point order regardless of pool size.
func TestRunWorkerInvariance(t *testing.T) {
	for _, tc := range []struct {
		n, d, k int
		seed    int64
	}{
		{120, 3, 5, 1},
		{257, 7, 9, 2},
		{64, 2, 64, 3}, // k == n: singleton clusters
	} {
		run := func(workers int) *Result {
			rng := rand.New(rand.NewSource(tc.seed))
			points := make([][]float64, tc.n)
			for i := range points {
				points[i] = make([]float64, tc.d)
				for j := range points[i] {
					points[i][j] = rng.NormFloat64()
				}
			}
			return RunWS(nil, points, tc.k, rand.New(rand.NewSource(tc.seed+100)), workers)
		}
		want := run(1)
		for _, workers := range []int{2, 4, 17} {
			got := run(workers)
			if got.Iterations != want.Iterations {
				t.Fatalf("n=%d workers=%d: %d iterations vs %d serial",
					tc.n, workers, got.Iterations, want.Iterations)
			}
			for i := range want.Assign {
				if got.Assign[i] != want.Assign[i] {
					t.Fatalf("n=%d workers=%d: point %d assigned to %d, serial says %d",
						tc.n, workers, i, got.Assign[i], want.Assign[i])
				}
			}
			for c := range want.Centroids {
				for j := range want.Centroids[c] {
					if got.Centroids[c][j] != want.Centroids[c][j] {
						t.Fatalf("n=%d workers=%d: centroid[%d][%d] = %g, serial %g (must be bit-identical)",
							tc.n, workers, c, j, got.Centroids[c][j], want.Centroids[c][j])
					}
				}
			}
		}
	}
}

// TestSplitWorkerInvariance: the 2-means split used by GCP obeys the same
// contract.
func TestSplitWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	points := make([][]float64, 90)
	for i := range points {
		points[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	members := make([]int, 0, 60)
	for i := 0; i < 60; i++ {
		members = append(members, i)
	}
	a1, b1, _, _ := SplitWS(nil, points, members, rand.New(rand.NewSource(9)), 1)
	for _, workers := range []int{2, 8} {
		a, b, _, _ := SplitWS(nil, points, members, rand.New(rand.NewSource(9)), workers)
		if !equalInts(a, a1) || !equalInts(b, b1) {
			t.Fatalf("workers=%d: split differs from serial", workers)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
