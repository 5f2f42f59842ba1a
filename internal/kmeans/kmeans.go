// Package kmeans implements Lloyd's k-means algorithm over dense points,
// with k-means++ seeding, deterministic behaviour under a caller-supplied
// random source, empty-cluster repair, and the "split one cluster into two"
// primitive required by the greedy cluster size prediction (GCP) step of
// AutoNCS.
//
// The hot Lloyd kernels — nearest-centroid assignment and per-cluster
// centroid accumulation — run on a bounded worker pool (the workers argument).
// Both are arranged so the result is bit-identical for any worker count:
// assignment is per-point independent, and each cluster's coordinate sum is
// accumulated by exactly one worker in ascending member order, the same
// order the serial loop uses. All random choices (seeding, tie breaks,
// empty-cluster repair) stay on the caller's goroutine, so the rng stream
// is consumed in a fixed order.
package kmeans

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"repro/internal/parallel"
)

// Result holds a clustering of n points into k clusters.
type Result struct {
	// Assign[i] is the cluster index of point i, in [0, K).
	Assign []int
	// Centroids[c] is the mean of the points assigned to cluster c.
	Centroids [][]float64
	// Inertia is the sum of squared distances of points to their centroid.
	Inertia float64
	// Iterations is the number of Lloyd iterations performed.
	Iterations int
}

// K returns the number of clusters.
func (r *Result) K() int { return len(r.Centroids) }

// Members returns the point indices of each cluster, in ascending order
// within a cluster.
func (r *Result) Members() [][]int {
	out := make([][]int, r.K())
	for i, c := range r.Assign {
		out[c] = append(out[c], i)
	}
	return out
}

// maxIterations bounds the Lloyd loop; convergence is typically far faster.
const maxIterations = 200

// Workspace holds the reusable per-run buffers of the Lloyd loop: the
// assignment vector, per-cluster counts and member lists, and the k-means++
// seeding distances. A zero Workspace is ready to use; buffers grow on
// demand and persist between runs, so a caller clustering repeatedly (the
// GCP split loop inside every ISC iteration) stops paying the per-run
// allocations. Reuse never changes results: every buffer is fully
// (re)initialized before it is read.
//
// A workspace must not be shared by concurrent runs, and the Assign slice
// of a Result produced with a workspace is only valid until the workspace's
// next run (call Members or copy it first). Centroids are always freshly
// allocated and stay valid.
type Workspace struct {
	assign  []int
	counts  []int
	members [][]int
	d2      []float64
	sub     [][]float64
}

func (ws *Workspace) forN(n int) []int {
	if cap(ws.assign) < n {
		ws.assign = make([]int, n)
	}
	ws.assign = ws.assign[:n]
	return ws.assign
}

func (ws *Workspace) forK(k int) ([]int, [][]int) {
	if cap(ws.counts) < k {
		ws.counts = make([]int, k)
	}
	ws.counts = ws.counts[:k]
	for cap(ws.members) < k {
		ws.members = append(ws.members[:cap(ws.members)], nil)
	}
	ws.members = ws.members[:k]
	return ws.counts, ws.members
}

// RunWS clusters the points into k clusters using Lloyd's algorithm with
// k-means++ seeding from rng, drawing all per-run buffers from ws (nil =
// allocate fresh). It panics on invalid input (k <= 0, k > n, ragged
// points). Empty clusters are repaired by reseeding at the point farthest
// from its assigned centroid, so every returned cluster is non-empty. The
// Lloyd kernels run on a bounded worker pool (0 = the parallel package
// default), and the result is bit-identical for every worker count.
func RunWS(ws *Workspace, points [][]float64, k int, rng *rand.Rand, workers int) *Result {
	n := len(points)
	if k <= 0 {
		panic(fmt.Sprintf("kmeans: k = %d must be positive", k))
	}
	if k > n {
		panic(fmt.Sprintf("kmeans: k = %d exceeds point count %d", k, n))
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			panic(fmt.Sprintf("kmeans: point %d has dim %d, want %d", i, len(p), dim))
		}
	}
	if ws == nil {
		ws = &Workspace{}
	}
	centroids := seedPlusPlus(ws, points, k, rng)
	return lloyd(ws, points, centroids, rng, workers)
}

// RunWithCentroidsWS clusters points starting from the provided centroids
// (copied, not mutated), drawing per-run buffers from ws (nil = allocate
// fresh). Used by GCP, which maintains its own centroid set B across
// splits. The number of clusters is len(centroids).
func RunWithCentroidsWS(ws *Workspace, points [][]float64, centroids [][]float64, rng *rand.Rand, workers int) *Result {
	if len(centroids) == 0 {
		panic("kmeans: no centroids")
	}
	if len(centroids) > len(points) {
		panic(fmt.Sprintf("kmeans: %d centroids exceed %d points", len(centroids), len(points)))
	}
	dim := len(points[0])
	init := make([][]float64, len(centroids))
	for i, c := range centroids {
		if len(c) != dim {
			panic(fmt.Sprintf("kmeans: centroid %d has dim %d, want %d", i, len(c), dim))
		}
		init[i] = append([]float64(nil), c...)
	}
	if ws == nil {
		ws = &Workspace{}
	}
	return lloyd(ws, points, init, rng, workers)
}

// assignPoints is the Lloyd assignment pass: each point moves to its
// nearest centroid, per-point independent (and therefore worker-count
// independent). It reports whether any assignment changed. The kernel is
// allocation-free for workers=1.
func assignPoints(workers int, points, centroids [][]float64, assign []int) bool {
	var changed atomic.Bool
	parallel.For(workers, len(points), func(i int) {
		p := points[i]
		best, bestD := 0, math.Inf(1)
		for c, cent := range centroids {
			if d := sqDist(p, cent); d < bestD {
				best, bestD = c, d
			}
		}
		if assign[i] != best {
			assign[i] = best
			changed.Store(true)
		}
	})
	return changed.Load()
}

// lloyd iterates assignment and centroid updates until assignments stop
// changing or maxIterations is hit. It repairs empty clusters. The two
// per-point kernels run on the worker pool; both are bit-identical to the
// serial loop for any worker count (see the package comment). Per-run
// buffers come from ws.
func lloyd(ws *Workspace, points, centroids [][]float64, rng *rand.Rand, workers int) *Result {
	n, k := len(points), len(centroids)
	assign := ws.forN(n)
	for i := range assign {
		assign[i] = -1
	}
	counts, members := ws.forK(k)
	iter := 0
	for ; iter < maxIterations; iter++ {
		if !assignPoints(workers, points, centroids, assign) && iter > 0 {
			break
		}
		// Update centroids: member lists are gathered serially in ascending
		// point order, then each cluster's coordinate sum is accumulated by
		// one worker over its members in that same order — the exact
		// floating-point order of the serial accumulation.
		for c := range members {
			members[c] = members[c][:0]
		}
		for i := 0; i < n; i++ {
			members[assign[i]] = append(members[assign[i]], i)
		}
		dim := len(points[0])
		parallel.For(workers, k, func(c int) {
			counts[c] = len(members[c])
			cent := centroids[c]
			for d := 0; d < dim; d++ {
				cent[d] = 0
			}
			for _, i := range members[c] {
				for d, v := range points[i] {
					cent[d] += v
				}
			}
		})
		for c := range centroids {
			if counts[c] == 0 {
				// Empty cluster: reseed at the point farthest from its
				// current centroid (deterministic given rng state: the rng
				// only breaks exact ties).
				centroids[c] = append([]float64(nil), points[farthestPoint(points, centroids, assign, rng)]...)
				continue
			}
			inv := 1 / float64(counts[c])
			for d := range centroids[c] {
				centroids[c][d] *= inv
			}
		}
	}
	inertia := 0.0
	for i, p := range points {
		inertia += sqDist(p, centroids[assign[i]])
	}
	return &Result{Assign: assign, Centroids: centroids, Inertia: inertia, Iterations: iter}
}

// farthestPoint returns the index of the point with maximum distance to its
// assigned centroid; rng breaks exact ties uniformly.
func farthestPoint(points, centroids [][]float64, assign []int, rng *rand.Rand) int {
	best, bestD, ties := 0, -1.0, 1
	for i, p := range points {
		d := sqDist(p, centroids[assign[i]])
		switch {
		case d > bestD:
			best, bestD, ties = i, d, 1
		case d == bestD:
			ties++
			if rng.Intn(ties) == 0 {
				best = i
			}
		}
	}
	return best
}

// seedPlusPlus chooses k initial centroids by the k-means++ scheme, using
// ws for the squared-distance scratch. Centroids are freshly allocated.
func seedPlusPlus(ws *Workspace, points [][]float64, k int, rng *rand.Rand) [][]float64 {
	n := len(points)
	centroids := make([][]float64, 0, k)
	first := rng.Intn(n)
	centroids = append(centroids, append([]float64(nil), points[first]...))
	if cap(ws.d2) < n {
		ws.d2 = make([]float64, n)
	}
	d2 := ws.d2[:n]
	for i, p := range points {
		d2[i] = sqDist(p, centroids[0])
	}
	for len(centroids) < k {
		total := 0.0
		for _, d := range d2 {
			total += d
		}
		var pick int
		if total <= 0 {
			// All remaining points coincide with a centroid; pick uniformly.
			pick = rng.Intn(n)
		} else {
			r := rng.Float64() * total
			acc := 0.0
			pick = n - 1
			for i, d := range d2 {
				acc += d
				if acc >= r {
					pick = i
					break
				}
			}
		}
		c := append([]float64(nil), points[pick]...)
		centroids = append(centroids, c)
		for i, p := range points {
			if d := sqDist(p, c); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centroids
}

// SplitWS partitions the given member points into two sub-clusters with
// 2-means and returns the two member index lists (indices into members) and
// the two centroids, drawing per-run buffers from ws (nil = allocate fresh).
// The returned member lists and centroids are freshly allocated. If all
// points coincide, the split is by index halves so progress is always made.
// len(members) must be at least 2.
func SplitWS(ws *Workspace, points [][]float64, members []int, rng *rand.Rand, workers int) (a, b []int, ca, cb []float64) {
	if len(members) < 2 {
		panic(fmt.Sprintf("kmeans: cannot split cluster of size %d", len(members)))
	}
	if ws == nil {
		ws = &Workspace{}
	}
	if cap(ws.sub) < len(members) {
		ws.sub = make([][]float64, len(members))
	}
	sub := ws.sub[:len(members)]
	for i, m := range members {
		sub[i] = points[m]
	}
	res := RunWS(ws, sub, 2, rng, workers)
	for i, c := range res.Assign {
		if c == 0 {
			a = append(a, members[i])
		} else {
			b = append(b, members[i])
		}
	}
	if len(a) == 0 || len(b) == 0 {
		// Degenerate geometry (identical points): split by halves.
		half := len(members) / 2
		a = append([]int(nil), members[:half]...)
		b = append([]int(nil), members[half:]...)
		ca = centroidOf(points, a)
		cb = centroidOf(points, b)
		return a, b, ca, cb
	}
	return a, b, res.Centroids[0], res.Centroids[1]
}

// centroidOf returns the mean of the selected points.
func centroidOf(points [][]float64, idx []int) []float64 {
	dim := len(points[0])
	c := make([]float64, dim)
	for _, i := range idx {
		for d, v := range points[i] {
			c[d] += v
		}
	}
	inv := 1 / float64(len(idx))
	for d := range c {
		c[d] *= inv
	}
	return c
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}
