package kmeans

import (
	"math/rand"
	"testing"
)

// TestAssignPassAllocs pins the Lloyd assignment kernel: one full
// nearest-centroid pass over the points performs no allocation beyond the
// bounded worker-dispatch residue.
func TestAssignPassAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	points := make([][]float64, 400)
	for i := range points {
		p := make([]float64, 6)
		for d := range p {
			p[d] = rng.NormFloat64()
		}
		points[i] = p
	}
	centroids := make([][]float64, 8)
	for c := range centroids {
		centroids[c] = append([]float64(nil), points[c*40]...)
	}
	assign := make([]int, len(points))
	allocs := testing.AllocsPerRun(20, func() {
		assignPoints(1, points, centroids, assign)
	})
	if allocs > 2 {
		t.Fatalf("assignment pass allocated %.1f times, want ≤ 2", allocs)
	}
}

// TestWorkspaceReuseMatchesFresh pins workspace transparency: repeated runs
// on one workspace produce the same clustering as fresh runs.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	mk := func(seed int64) [][]float64 {
		rng := rand.New(rand.NewSource(seed))
		pts := make([][]float64, 120)
		for i := range pts {
			p := make([]float64, 4)
			for d := range p {
				p[d] = rng.NormFloat64()
			}
			pts[i] = p
		}
		return pts
	}
	var ws Workspace
	for trial, seed := range []int64{3, 17, 99} {
		pts := mk(seed)
		fresh := RunWS(nil, pts, 7, rand.New(rand.NewSource(seed)), 1)
		reused := RunWS(&ws, pts, 7, rand.New(rand.NewSource(seed)), 1)
		fm, rm := fresh.Members(), reused.Members()
		if len(fm) != len(rm) {
			t.Fatalf("trial %d: %d vs %d clusters", trial, len(fm), len(rm))
		}
		for c := range fm {
			if len(fm[c]) != len(rm[c]) {
				t.Fatalf("trial %d cluster %d: size %d vs %d", trial, c, len(fm[c]), len(rm[c]))
			}
			for i := range fm[c] {
				if fm[c][i] != rm[c][i] {
					t.Fatalf("trial %d cluster %d member %d: %d vs %d", trial, c, i, fm[c][i], rm[c][i])
				}
			}
		}
		if fresh.Inertia != reused.Inertia {
			t.Fatalf("trial %d: inertia %g vs %g", trial, fresh.Inertia, reused.Inertia)
		}
	}
}
