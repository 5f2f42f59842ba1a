// Package core implements the paper's primary contribution: the AutoNCS
// connection-clustering flow that partitions a sparse neural network into
// memristor crossbars and discrete synapses.
//
// It provides the three algorithms of Section 3:
//
//   - MSC  (Algorithm 1) — modified spectral clustering, where similarity is
//     the number of connections between neurons;
//   - GCP  (Algorithm 2) — greedy cluster size prediction, which bounds the
//     largest cluster at the maximum crossbar size by splitting oversized
//     k-means clusters in place (plus the slower "traversing" baseline);
//   - ISC  (Algorithm 3) — iterative spectral clustering with the crossbar
//     preference (CP) quartile partial-selection strategy, producing the
//     final hybrid xbar.Assignment.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/graph"
	"repro/internal/kmeans"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/xbar"
)

// Cluster is a group of neuron indices selected to share one crossbar.
type Cluster []int

// lanczosCutoff is the active-neuron count above which the spectral
// embedding switches from the dense O(n³) eigensolver to the sparse
// Lanczos solver. The paper's testbenches (N ≤ 500) stay on the dense
// path; the cutoff exists for the larger networks the introduction
// motivates (4000+-input deep networks, LDPC codes). Measured with the
// in-place row-major kernel at ~94% sparsity (workers=1, AMD EPYC), one
// embedding costs 67 ms dense vs 98 ms Lanczos at n=400 and 126 vs 164 ms
// at n=500; the two meet near n≈570 (158 vs 161 ms at 560, 173 vs 168 ms
// at 580). The cutoff stays at 512: raising it would hand rounds with
// 512 < n_a ≤ 570 to the dense solver, moving the n720 golden, to save at
// most ~30 ms a round.
const lanczosCutoff = 512

// scratch carries the reusable buffers of one clustering flow: the
// global→local index array and restricted CSR of the embedding, the dense
// eigensolver whose n_a×n_a buffer holds the dense-path embedding, the
// Lanczos workspace, the k-means workspace, and the flat backing of the
// embedding point set. ISC allocates one scratch and threads it through
// every iteration's GCP pass, so the per-iteration spectral solve and
// k-means passes stop allocating; the public single-shot entry points
// (MSC, GCP, Traversing) each create their own. Reuse never changes
// results: every buffer is fully overwritten before it is read, and no two
// live structures share a buffer (an embedding, like a point set, is
// invalidated by the next one, which is always dead by then).
type scratch struct {
	g2l     []int32 // global → local index over active neurons; -1 = inactive
	local   graph.CSR
	eig     matrix.SymEig
	invSqrt []float64 // D^{-1/2} of the dense-path embedding
	lanWS   matrix.LanczosWS
	kmWS    kmeans.Workspace
	ptsBuf  []float64
	ptsHdr  [][]float64

	// Multilevel-mode state; zero (and unused) on the default flat path.
	ml        mlOptions
	mlSc      *mlScratch
	stats     *EngineStats // non-nil iff ml.enabled
	warm      warmState
	lapOp     matrix.CSRLaplacianOp
	opFn      matrix.MulVecFunc // stored once: sc.lapOp.Mul without a per-call closure
	rng       *rand.Rand        // re-seeded per warm solve; no allocation per iteration
	uDense    *matrix.Dense     // D^{-1/2}-scaled eigenvector matrix of the warm path
	emb       spectralEmbedding // the dense and warm paths' reused embedding header
	activeBuf []int
}

// collectActive builds the active-neuron list and the global→local map over
// scratch-owned storage. At most one live (active, g2l) pair per scratch:
// a subsequent call overwrites both, which every caller satisfies (one
// embedding is consumed before the next is built).
func (sc *scratch) collectActive(csr *graph.CSR, n int) ([]int, []int32) {
	lapDeg := csr.LaplacianDegrees()
	if cap(sc.g2l) < n {
		sc.g2l = make([]int32, n)
	}
	g2l := sc.g2l[:n]
	if cap(sc.activeBuf) < n {
		sc.activeBuf = make([]int, 0, n)
	}
	active := sc.activeBuf[:0]
	for i := 0; i < n; i++ {
		if lapDeg[i] > 0 {
			g2l[i] = int32(len(active))
			active = append(active, i)
		} else {
			g2l[i] = -1
		}
	}
	sc.activeBuf = active
	return active, g2l
}

// spectralEmbedding computes the generalized eigendecomposition
// L·u = λ·D·u of the symmetrized network restricted to its active neurons
// (those with positive Laplacian degree), with eigenvectors sorted by
// ascending eigenvalue. For small networks all eigenvectors are computed
// densely; above lanczosCutoff only the smallest max(48, 4·kHint) are
// extracted with Lanczos, and points() clamps to what is available.
type spectralEmbedding struct {
	active []int
	cols   int
	// Dense path: the eigenvectors w of D^{-1/2}·L·D^{-1/2} in the scratch
	// eigensolver, read as u = D^{-1/2}·w.
	eig     *matrix.SymEig
	invSqrt []float64
	// Lanczos paths: u itself, len(active) × cols.
	u *matrix.Dense
}

func newSpectralEmbedding(w *graph.Conn, kHint, workers int, sc *scratch) (*spectralEmbedding, error) {
	// One O(E) CSR build (cached on the Conn until mutation) replaces the
	// dense O(n²) Laplacian materialization of the original implementation.
	csr := w.SymmetrizedCSR()
	lapDeg := csr.LaplacianDegrees()
	active, g2l := sc.collectActive(csr, w.N())
	if len(active) == 0 {
		return &spectralEmbedding{}, nil
	}
	na := len(active)
	if na > lanczosCutoff {
		return lanczosEmbedding(csr, active, g2l, kHint, workers, sc)
	}
	// Dense path: the generalized problem reduces to the symmetric one on
	// M = D^{-1/2}·L·D^{-1/2}, written edge-by-edge from the CSR rows in
	// O(E + na) straight into the scratch eigensolver's buffer and
	// diagonalized where it sits. Off-diagonal entries are (−s_a)·s_b with
	// s = D^{-1/2}, so M is exactly symmetric and needs no symmetrization
	// pass; each entry is the product GeneralizedSym forms, bit for bit.
	sc.invSqrt = growF64(sc.invSqrt, na)
	invSqrt := sc.invSqrt
	for a, i := range active {
		invSqrt[a] = 1 / math.Sqrt(lapDeg[i])
	}
	m := sc.eig.Reset(na)
	for a, i := range active {
		row, sa := m[a*na:(a+1)*na], invSqrt[a]
		for _, j := range csr.Row(i) {
			if int(j) == i {
				continue // self-loops do not contribute to the Laplacian
			}
			b := g2l[j]
			row[b] = -sa * invSqrt[b]
		}
		row[a] = lapDeg[i] * sa * sa
	}
	if err := sc.eig.Solve(); err != nil {
		return nil, fmt.Errorf("core: spectral embedding: %w", err)
	}
	sc.emb = spectralEmbedding{active: active, cols: na, eig: &sc.eig, invSqrt: invSqrt}
	return &sc.emb, nil
}

// lanczosEmbedding extracts the smallest generalized eigenvectors with the
// sparse solver: the active subset is restricted to a local CSR in
// O(E_active), the symmetric normalized Laplacian operator iterates its
// index arrays allocation-free (the previous implementation re-collected a
// bitset row into a fresh buffer and probed a position map on every matvec
// of every Lanczos step), and the Ritz vectors are mapped back through
// u = D^{-1/2}·w.
func lanczosEmbedding(csr *graph.CSR, active []int, g2l []int32, kHint, workers int, sc *scratch) (*spectralEmbedding, error) {
	na := len(active)
	k := 4 * kHint
	if k < 48 {
		k = 48
	}
	if k > na {
		k = na
	}
	local := csr.RestrictTo(active, g2l, &sc.local)
	deg := local.LaplacianDegrees()
	rowPtr, col := local.Arrays()
	if sc.ml.enabled {
		// Multilevel mode reaches this path only for active networks at or
		// below the multilevel cutoff (the ISC tail): the adaptive solver with
		// a warm start carried from the previous iteration's Ritz basis.
		return sc.warmLanczosEmbedding(active, deg, rowPtr, col, na, k, workers)
	}
	op, err := matrix.NormalizedLaplacianCSRN(na, deg, rowPtr, col, workers)
	if err != nil {
		return nil, fmt.Errorf("core: lanczos embedding: %w", err)
	}
	_, vecs, err := matrix.LanczosSmallestWS(&sc.lanWS, op, na, k, rand.New(rand.NewSource(lanczosSeed)), workers)
	if err != nil {
		return nil, fmt.Errorf("core: lanczos embedding: %w", err)
	}
	u := matrix.NewDense(na, vecs.Cols())
	for a := 0; a < na; a++ {
		inv := 1 / math.Sqrt(deg[a])
		for c := 0; c < vecs.Cols(); c++ {
			u.Set(a, c, inv*vecs.At(a, c))
		}
	}
	return &spectralEmbedding{active: active, u: u, cols: vecs.Cols()}, nil
}

// points returns the embedding rows truncated to the first k coordinates
// (the k smallest generalized eigenvectors), one point per active neuron.
// k is clamped to the number of computed eigenvectors. The rows share sc's
// flat backing: a subsequent points() call on the same scratch overwrites
// them, so at most one point set per scratch is live at a time (the GCP and
// MSC flows satisfy this by construction — every consumer of a point set
// finishes before the embedding is re-cut).
func (e *spectralEmbedding) points(k int, sc *scratch) [][]float64 {
	if k > e.cols {
		k = e.cols
	}
	na := len(e.active)
	if cap(sc.ptsBuf) < na*k {
		sc.ptsBuf = make([]float64, na*k)
	}
	buf := sc.ptsBuf[:na*k]
	if cap(sc.ptsHdr) < na {
		sc.ptsHdr = make([][]float64, na)
	}
	pts := sc.ptsHdr[:na]
	for r := range pts {
		pts[r] = buf[r*k : (r+1)*k : (r+1)*k]
	}
	if e.eig != nil {
		for c := 0; c < k; c++ {
			for r, x := range e.eig.Vector(c) {
				buf[r*k+c] = e.invSqrt[r] * x
			}
		}
		return pts
	}
	for r, p := range pts {
		for c := range p {
			p[c] = e.u.At(r, c)
		}
	}
	return pts
}

// toGlobal converts k-means member lists over embedding rows into clusters
// of global neuron indices.
func (e *spectralEmbedding) toGlobal(members [][]int) []Cluster {
	out := make([]Cluster, 0, len(members))
	for _, ms := range members {
		if len(ms) == 0 {
			continue
		}
		cl := make(Cluster, len(ms))
		for i, m := range ms {
			cl[i] = e.active[m]
		}
		sort.Ints(cl)
		out = append(out, cl)
	}
	return out
}

// MSC is Algorithm 1: modified spectral clustering of the network's
// connections into k groups. Neurons with no connections are excluded (they
// need no crossbar). If fewer than k active neurons exist, k is reduced to
// the active count. The rng drives k-means seeding only.
func MSC(w *graph.Conn, k int, rng *rand.Rand) ([]Cluster, error) {
	return MSCN(w, k, rng, 1)
}

// MSCN is MSC on a bounded worker pool (0 = package default). Clusterings
// are bit-identical for any worker count.
func MSCN(w *graph.Conn, k int, rng *rand.Rand, workers int) ([]Cluster, error) {
	return mscN(w, k, rng, workers, &scratch{})
}

func mscN(w *graph.Conn, k int, rng *rand.Rand, workers int, sc *scratch) ([]Cluster, error) {
	if k <= 0 {
		panic(fmt.Sprintf("core: MSC with k = %d", k))
	}
	emb, err := newSpectralEmbedding(w, k, workers, sc)
	if err != nil {
		return nil, err
	}
	return mscOnEmbedding(emb, k, rng, workers, sc), nil
}

func mscOnEmbedding(emb *spectralEmbedding, k int, rng *rand.Rand, workers int, sc *scratch) []Cluster {
	if len(emb.active) == 0 {
		return nil
	}
	if k > len(emb.active) {
		k = len(emb.active)
	}
	res := kmeans.RunWS(&sc.kmWS, emb.points(k, sc), k, rng, workers)
	return emb.toGlobal(res.Members())
}

// maxGCPOuter bounds the outer (re-embedding) loop of GCP; in practice the
// loop converges in a handful of rounds.
const maxGCPOuter = 60

// GCP is Algorithm 2: greedy cluster size prediction. It clusters the
// network like MSC but bounds every cluster at maxSize neurons: whenever
// k-means produces an oversized cluster it is immediately split in two with
// 2-means, k is incremented, and the centroid set is updated; when any split
// occurred, the embedding is re-cut at the new k and the process repeats.
//
// Deviation from the paper's pseudocode (documented in DESIGN.md): the
// initial centroids are seeded with k-means++ rather than all-zeros (zero
// seeding collapses the first assignment), and after k grows the centroids
// are recomputed from the current memberships in the re-cut embedding
// (the pseudocode leaves the changed embedding dimension unreconciled).
func GCP(w *graph.Conn, maxSize int, rng *rand.Rand) ([]Cluster, error) {
	return GCPN(w, maxSize, rng, 1)
}

// GCPN is GCP on a bounded worker pool (0 = package default). The rng-
// consuming control flow (seeding, split order, tie breaks) stays on the
// calling goroutine, so clusterings are bit-identical for any worker count.
func GCPN(w *graph.Conn, maxSize int, rng *rand.Rand, workers int) ([]Cluster, error) {
	return gcpN(w, maxSize, rng, workers, &scratch{})
}

func gcpN(w *graph.Conn, maxSize int, rng *rand.Rand, workers int, sc *scratch) ([]Cluster, error) {
	if maxSize <= 0 {
		panic(fmt.Sprintf("core: GCP with maxSize = %d", maxSize))
	}
	emb, err := newSpectralEmbedding(w, (w.N()+maxSize-1)/maxSize, workers, sc)
	if err != nil {
		return nil, err
	}
	return gcpOnEmbedding(emb, maxSize, rng, workers, sc), nil
}

func gcpOnEmbedding(emb *spectralEmbedding, maxSize int, rng *rand.Rand, workers int, sc *scratch) []Cluster {
	n := len(emb.active)
	if n == 0 {
		return nil
	}
	k := (n + maxSize - 1) / maxSize
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	// First cut: k-means++ seeding on the k-dimensional embedding.
	pts := emb.points(k, sc)
	res := kmeans.RunWS(&sc.kmWS, pts, k, rng, workers)
	members := res.Members()

	for outer := 0; outer < maxGCPOuter; outer++ {
		flagOuter := false
		for {
			flagInner := false
			var next [][]int
			for _, ms := range members {
				if len(ms) <= maxSize {
					if len(ms) > 0 {
						next = append(next, ms)
					}
					continue
				}
				a, b, _, _ := kmeans.SplitWS(&sc.kmWS, pts, ms, rng, workers)
				next = append(next, a, b)
				k++
				flagInner = true
				flagOuter = true
			}
			members = next
			if !flagInner {
				break
			}
		}
		if !flagOuter {
			break
		}
		if k > n {
			k = n
		}
		// Re-cut the embedding at the grown k and refine with k-means
		// seeded from the current memberships.
		pts = emb.points(k, sc)
		centroids := make([][]float64, 0, len(members))
		for _, ms := range members {
			centroids = append(centroids, centroidOf(pts, ms))
		}
		res = kmeans.RunWithCentroidsWS(&sc.kmWS, pts, centroids, rng, workers)
		members = res.Members()
	}
	// A final defensive pass: if the outer cap was hit with an oversized
	// cluster remaining, split by plain bisection until bounded.
	for changed := true; changed; {
		changed = false
		var next [][]int
		for _, ms := range members {
			if len(ms) <= maxSize {
				if len(ms) > 0 {
					next = append(next, ms)
				}
				continue
			}
			a, b, _, _ := kmeans.SplitWS(&sc.kmWS, pts, ms, rng, workers)
			next = append(next, a, b)
			changed = true
		}
		members = next
	}
	return emb.toGlobal(members)
}

func centroidOf(points [][]float64, idx []int) []float64 {
	dim := len(points[0])
	c := make([]float64, dim)
	if len(idx) == 0 {
		return c
	}
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

// Traversing is the baseline cluster-size control the paper compares GCP
// against (Section 3.3): exhaustively increase k and re-run the whole MSC
// (including the spectral solve, exactly as Algorithm 1 specifies) until
// the largest cluster fits in maxSize. Repeating the spectral computation
// per k is what makes traversing ~2× slower than GCP in the paper's
// Figure 4 measurement.
func Traversing(w *graph.Conn, maxSize int, rng *rand.Rand) ([]Cluster, error) {
	return TraversingN(w, maxSize, rng, 1)
}

// TraversingN is Traversing on a bounded worker pool (0 = package default).
func TraversingN(w *graph.Conn, maxSize int, rng *rand.Rand, workers int) ([]Cluster, error) {
	if maxSize <= 0 {
		panic(fmt.Sprintf("core: Traversing with maxSize = %d", maxSize))
	}
	n := w.N()
	k := (n + maxSize - 1) / maxSize
	if k < 1 {
		k = 1
	}
	sc := &scratch{} // one scratch across the whole k sweep
	for ; k <= n; k++ {
		clusters, err := mscN(w, k, rng, workers, sc)
		if err != nil {
			return nil, err
		}
		if len(clusters) == 0 {
			return nil, nil
		}
		fit := true
		for _, c := range clusters {
			if len(c) > maxSize {
				fit = false
				break
			}
		}
		if fit {
			return clusters, nil
		}
	}
	// k = n always fits (singletons), so this is unreachable; kept for
	// defensive completeness.
	return mscN(w, n, rng, workers, sc)
}

// ClusterStats describes one candidate cluster during an ISC iteration.
type ClusterStats struct {
	Cluster    Cluster
	Within     int     // m: connections inside the cluster
	FitSize    int     // minimum satisfiable crossbar size (0 if none fits)
	Preference float64 // CP = m/FitSize
	Selected   bool    // chosen by the partial selection strategy
}

// Iteration records one ISC round for the Figure 6-9 analyses.
type Iteration struct {
	Index          int            // 1-based iteration number
	Clusters       []ClusterStats // all clusters formed this round
	QuartileCP     float64        // the CP selection threshold q
	Placed         int            // crossbars realized this round
	AvgUtilization float64        // mean u of crossbars placed this round
	AvgPreference  float64        // mean CP of crossbars placed this round
	OutlierRatio   float64        // remaining connections / total, after this round
}

// ISCResult is the outcome of the full iterative clustering flow.
type ISCResult struct {
	Assignment *xbar.Assignment
	Trace      []Iteration
	// Engine summarizes the clustering engine's work (multilevel rounds,
	// matchings, eigensolves, warm starts, timings). Zero when the flat
	// engine ran without the multilevel option.
	Engine EngineStats
}

// ISCOptions tunes Algorithm 3.
type ISCOptions struct {
	// Library is the allowed crossbar size set; required.
	Library xbar.Library
	// UtilizationThreshold is t: ISC stops when the average utilization of
	// the crossbars placed in an iteration drops below it.
	UtilizationThreshold float64
	// SelectionQuantile is the CP quantile above which clusters are
	// realized each iteration. The paper removes the top 25%, i.e. 0.75.
	// Zero means 0.75. Set to a negative value to select every cluster
	// (disabling the partial selection strategy, for ablation).
	SelectionQuantile float64
	// MaxIterations bounds the loop defensively. Zero means 100.
	MaxIterations int
	// Rand drives k-means; required.
	Rand *rand.Rand
	// Workers bounds the worker pool of the data-parallel kernels
	// (spectral solves, k-means, CP scoring). Zero means the parallel
	// package default (runtime.NumCPU() unless overridden); negative is
	// rejected. The clustering is bit-identical for every worker count.
	Workers int
	// Observer, when non-nil, receives an obs.ISCIteration event after
	// every round of the loop (and, in multilevel mode, one obs.ClusterStats
	// summary after the loop). Observers are passive: they cannot change
	// the clustering.
	Observer obs.Observer
	// Multilevel enables the coarsen→solve→uncoarsen clustering engine for
	// iterations whose active network exceeds MultilevelCutoff, with
	// warm-started adaptive Lanczos solves below it. Off by default: the
	// flat engine is the paper-faithful reference path and its results are
	// golden-pinned.
	Multilevel bool
	// MultilevelCutoff is the active-neuron count at or below which an
	// iteration uses the flat engine (and the coarse-graph size coarsening
	// aims for). Zero means DefaultMultilevelCutoff; values below 2 are
	// rejected. Ignored unless Multilevel is set, but validated regardless.
	MultilevelCutoff int
	// CoarsenRatio is the minimum shrink a coarsening level must achieve to
	// continue (coarse/fine node ratio). Zero means DefaultCoarsenRatio;
	// values outside (0,1) are rejected. Validated regardless of Multilevel.
	CoarsenRatio float64
	// MultilevelLevels bounds the coarsening depth. Zero means unbounded;
	// negative is rejected.
	MultilevelLevels int
}

func (o *ISCOptions) normalize() error {
	if o.Library.Empty() {
		return fmt.Errorf("core: ISC requires a crossbar library")
	}
	if o.Rand == nil {
		return fmt.Errorf("core: ISC requires a random source")
	}
	if o.Workers < 0 {
		return fmt.Errorf("core: negative worker count %d", o.Workers)
	}
	if math.IsNaN(o.UtilizationThreshold) || o.UtilizationThreshold < 0 || o.UtilizationThreshold > 1 {
		return fmt.Errorf("core: utilization threshold %g out of [0,1]", o.UtilizationThreshold)
	}
	if o.SelectionQuantile == 0 {
		o.SelectionQuantile = 0.75
	}
	if math.IsNaN(o.SelectionQuantile) || o.SelectionQuantile > 1 {
		return fmt.Errorf("core: selection quantile %g out of range", o.SelectionQuantile)
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 100
	}
	if o.MultilevelCutoff == 0 {
		o.MultilevelCutoff = DefaultMultilevelCutoff
	}
	if o.MultilevelCutoff < 2 {
		return fmt.Errorf("core: multilevel cutoff %d below 2", o.MultilevelCutoff)
	}
	if o.CoarsenRatio == 0 {
		o.CoarsenRatio = DefaultCoarsenRatio
	}
	if math.IsNaN(o.CoarsenRatio) || o.CoarsenRatio <= 0 || o.CoarsenRatio >= 1 {
		return fmt.Errorf("core: coarsen ratio %g outside (0,1)", o.CoarsenRatio)
	}
	if o.MultilevelLevels < 0 {
		return fmt.Errorf("core: negative multilevel level bound %d", o.MultilevelLevels)
	}
	return nil
}

// ISC is Algorithm 3: iterative spectral clustering with partial selection.
// Each round clusters the remaining network with GCP bounded at the largest
// library size, computes each cluster's crossbar preference, realizes the
// clusters at or above the CP quartile q on their minimum satisfiable
// crossbars, and removes those connections from the remaining network. The
// loop stops when the quartile cluster no longer justifies the smallest
// crossbar, when placed-crossbar utilization falls below the threshold, or
// when no connections remain; whatever is left becomes discrete synapses.
func ISC(w *graph.Conn, opts ISCOptions) (*ISCResult, error) {
	return ISCCtx(context.Background(), w, opts)
}

// ISCCtx is ISC under a context: cancellation is checked at the top of
// every iteration (the loop returns a wrapped ctx.Err() within one round of
// the cancel), and opts.Observer — if set — receives one obs.ISCIteration
// event per round. Neither the context check nor the observer can perturb
// the clustering: with an uncancelled context the result is bit-identical
// to ISC without an observer.
func ISCCtx(ctx context.Context, w *graph.Conn, opts ISCOptions) (*ISCResult, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	lib, rng := opts.Library, opts.Rand
	workers := parallel.Resolve(opts.Workers)
	total := w.NNZ()
	remaining := w.Clone()
	assign := &xbar.Assignment{N: w.N(), Total: total}
	var trace []Iteration
	// record appends one finished round to the trace and tells the observer.
	record := func(it Iteration, clusters int) {
		trace = append(trace, it)
		obs.Emit(opts.Observer, obs.ISCIteration{
			Index:          it.Index,
			Clusters:       clusters,
			Placed:         it.Placed,
			QuartileCP:     it.QuartileCP,
			AvgUtilization: it.AvgUtilization,
			Threshold:      opts.UtilizationThreshold,
			OutlierRatio:   it.OutlierRatio,
		})
	}

	// One scratch for the whole loop: every iteration's spectral restriction,
	// Lanczos solve, and k-means passes draw from the same grown-once buffers.
	// In multilevel mode the scratch also carries the hierarchy and the warm
	// Ritz basis from iteration to iteration.
	var engine EngineStats
	sc := &scratch{}
	if opts.Multilevel {
		sc.ml = mlOptions{
			enabled:   true,
			cutoff:    opts.MultilevelCutoff,
			ratio:     opts.CoarsenRatio,
			maxLevels: opts.MultilevelLevels,
		}
		sc.stats = &engine
	}
	for iter := 1; iter <= opts.MaxIterations && remaining.NNZ() > 0; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: ISC cancelled before iteration %d: %w", iter, err)
		}
		clusters, err := clusterRound(remaining, lib.Max(), rng, workers, sc)
		if err != nil {
			return nil, err
		}
		if len(clusters) == 0 {
			break
		}
		// Score every candidate cluster concurrently: CountWithin and
		// FitFor only read the remaining network, and each cluster writes
		// its own ordered slot.
		stats := parallel.Map(workers, len(clusters), func(i int) ClusterStats {
			cl := clusters[i]
			m := remaining.CountWithin(cl)
			fit, ok := lib.FitFor(len(cl))
			cs := ClusterStats{Cluster: cl, Within: m}
			if ok && m > 0 {
				cs.FitSize = fit
				cs.Preference = xbar.Preference(m, fit)
			}
			return cs
		})
		q := quantile(preferences(stats), opts.SelectionQuantile)
		it := Iteration{Index: iter, QuartileCP: q}
		if q <= 0 {
			// No cluster holds any connections worth a crossbar.
			it.Clusters = stats
			it.OutlierRatio = outlierRatio(remaining, total)
			record(it, len(clusters))
			break
		}
		// Stop when the quartile cluster has degenerated below the
		// smallest crossbar (Algorithm 3 line 6).
		if sizeAtCP(stats, q) < lib.Min() {
			it.Clusters = stats
			it.OutlierRatio = outlierRatio(remaining, total)
			record(it, len(clusters))
			break
		}
		sumU, sumCP := 0.0, 0.0
		for i := range stats {
			cs := &stats[i]
			if cs.FitSize == 0 || cs.Preference < q {
				continue
			}
			cs.Selected = true
			cb := xbar.Crossbar{
				Size:    cs.FitSize,
				Inputs:  append([]int(nil), cs.Cluster...),
				Outputs: append([]int(nil), cs.Cluster...),
				Conns:   remaining.WithinEdges(cs.Cluster),
			}
			assign.Crossbars = append(assign.Crossbars, cb)
			remaining.RemoveWithin(cs.Cluster)
			it.Placed++
			sumU += cb.Utilization()
			sumCP += cb.Preference()
		}
		if it.Placed > 0 {
			it.AvgUtilization = sumU / float64(it.Placed)
			it.AvgPreference = sumCP / float64(it.Placed)
		}
		it.Clusters = stats
		it.OutlierRatio = outlierRatio(remaining, total)
		record(it, len(clusters))
		if it.Placed == 0 || it.AvgUtilization < opts.UtilizationThreshold {
			break
		}
	}
	assign.Synapses = remaining.Edges()
	if opts.Multilevel {
		obs.Emit(opts.Observer, obs.ClusterStats{
			MultilevelRounds: engine.MultilevelRounds,
			FlatRounds:       engine.FlatRounds,
			Levels:           engine.Levels,
			MaxDepth:         engine.MaxDepth,
			Matchings:        engine.Matchings,
			Eigensolves:      engine.Eigensolves,
			WarmStarts:       engine.WarmStarts,
			LanczosSteps:     engine.LanczosSteps,
			RefineMoves:      engine.RefineMoves,
			CoarsenTime:      engine.CoarsenTime,
			SolveTime:        engine.SolveTime,
			RefineTime:       engine.RefineTime,
		})
	}
	return &ISCResult{Assignment: assign, Trace: trace, Engine: engine}, nil
}

// clusterRound produces one ISC round's clusters: the flat GCP pass by
// default, or — in multilevel mode, while the active network exceeds the
// cutoff — the multilevel engine. The dispatch depends only on the remaining
// network and the options, never on the worker count.
func clusterRound(w *graph.Conn, maxSize int, rng *rand.Rand, workers int, sc *scratch) ([]Cluster, error) {
	if !sc.ml.enabled {
		return gcpN(w, maxSize, rng, workers, sc)
	}
	activeN := 0
	for _, d := range w.SymmetrizedCSR().LaplacianDegrees() {
		if d > 0 {
			activeN++
		}
	}
	if activeN > sc.ml.cutoff {
		sc.stats.MultilevelRounds++
		return multilevelCluster(w, maxSize, workers, sc)
	}
	sc.stats.FlatRounds++
	return gcpN(w, maxSize, rng, workers, sc)
}

func outlierRatio(remaining *graph.Conn, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(remaining.NNZ()) / float64(total)
}

func preferences(stats []ClusterStats) []float64 {
	out := make([]float64, len(stats))
	for i, s := range stats {
		out[i] = s.Preference
	}
	return out
}

// sizeAtCP returns the neuron count of the cluster whose CP is closest to q
// from above (the "crossbar with CP=q" of Algorithm 3 line 6).
func sizeAtCP(stats []ClusterStats, q float64) int {
	best, bestCP := 0, math.Inf(1)
	for _, s := range stats {
		if s.Preference >= q && s.Preference < bestCP {
			best, bestCP = len(s.Cluster), s.Preference
		}
	}
	return best
}

// quantile returns the p-quantile of xs by nearest-rank on the sorted
// values. Empty input yields 0.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(p*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// PermutationByClusters returns a neuron ordering that lists every cluster's
// members contiguously (clusters in the given order) followed by all
// remaining neurons in ascending order. Rendering a connection matrix in
// this order makes the clusters appear as diagonal blocks, as in the
// paper's Figures 3-6.
func PermutationByClusters(n int, clusters []Cluster) []int {
	order := make([]int, 0, n)
	placed := make([]bool, n)
	for _, cl := range clusters {
		for _, v := range cl {
			if v < 0 || v >= n {
				panic(fmt.Sprintf("core: cluster member %d out of range %d", v, n))
			}
			if placed[v] {
				panic(fmt.Sprintf("core: neuron %d appears in two clusters", v))
			}
			placed[v] = true
			order = append(order, v)
		}
	}
	for v := 0; v < n; v++ {
		if !placed[v] {
			order = append(order, v)
		}
	}
	return order
}
