// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 4). Each runner returns a structured result (so the
// benchmark harness and tests can assert on it) plus terminal-friendly
// renderings of the original plots. Runners accept explicit sizes and
// testbenches, so tests can execute scaled-down variants; cmd/ncsbench
// runs them at the paper's parameters.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/hopfield"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/viz"
	"repro/internal/xbar"
)

// SparseNet builds the experiment input: a sparse Hopfield-style network of
// n neurons at roughly the paper's testbench sparsity (~94%).
func SparseNet(n int, seed int64) *graph.Conn {
	tb := hopfield.Testbench{M: maxInt(3, n/16), N: n, Sparsity: 0.94}
	cm, _, _ := tb.Build(seed)
	return cm
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ---------------------------------------------------------------- Figure 3

// Figure3Result reproduces Figure 3: the connection matrix of a sparse
// network before and after one MSC pass.
type Figure3Result struct {
	N            int
	Connections  int
	Clusters     []core.Cluster
	OutlierRatio float64 // fraction of connections not inside any cluster
	Before       string  // ASCII render, natural neuron order
	After        string  // ASCII render, cluster-permuted order
}

// Figure3 runs MSC with k = n/maxSize clusters on an n-neuron sparse
// network (the paper uses a real 400×400 network and reports 57% outliers
// after a single pass).
func Figure3(n, maxSize int, seed int64) (*Figure3Result, error) {
	cm := SparseNet(n, seed)
	k := maxInt(1, n/maxSize)
	clusters, err := core.MSCN(cm, k, rand.New(rand.NewSource(seed)), 0)
	if err != nil {
		return nil, err
	}
	within := 0
	for _, cl := range clusters {
		within += cm.CountWithin(cl)
	}
	perm := core.PermutationByClusters(n, clusters)
	return &Figure3Result{
		N:            n,
		Connections:  cm.NNZ(),
		Clusters:     clusters,
		OutlierRatio: 1 - float64(within)/float64(cm.NNZ()),
		Before:       viz.Matrix(cm, nil, 60),
		After:        viz.Matrix(cm, perm, 60),
	}, nil
}

// ---------------------------------------------------------------- Figure 4

// Figure4Result compares GCP against the traversing algorithm (Figure 4:
// near-identical clusterings, GCP at roughly half the runtime).
type Figure4Result struct {
	GCP        ClusteringStats
	Traversing ClusteringStats
}

// ClusteringStats summarizes one size-bounded clustering run.
type ClusteringStats struct {
	Clusters     int
	MaxSize      int
	WithinRatio  float64 // connections captured inside clusters
	Elapsed      time.Duration
	OutlierRatio float64
}

// Figure4 runs both size-control algorithms on the same network with the
// given cluster size limit.
func Figure4(n, maxSize int, seed int64) (*Figure4Result, error) {
	cm := SparseNet(n, seed)
	stats := func(run func() ([]core.Cluster, error)) (ClusteringStats, error) {
		start := time.Now()
		clusters, err := run()
		elapsed := time.Since(start)
		if err != nil {
			return ClusteringStats{}, err
		}
		s := ClusteringStats{Clusters: len(clusters), Elapsed: elapsed}
		within := 0
		for _, cl := range clusters {
			within += cm.CountWithin(cl)
			if len(cl) > s.MaxSize {
				s.MaxSize = len(cl)
			}
		}
		s.WithinRatio = float64(within) / float64(cm.NNZ())
		s.OutlierRatio = 1 - s.WithinRatio
		return s, nil
	}
	var out Figure4Result
	var err error
	if out.GCP, err = stats(func() ([]core.Cluster, error) {
		return core.GCPN(cm, maxSize, rand.New(rand.NewSource(seed)), 0)
	}); err != nil {
		return nil, err
	}
	if out.Traversing, err = stats(func() ([]core.Cluster, error) {
		return core.TraversingN(cm, maxSize, rand.New(rand.NewSource(seed)), 0)
	}); err != nil {
		return nil, err
	}
	return &out, nil
}

// ------------------------------------------------------------ Figures 5, 6

// Figure56Result reproduces Figures 5 and 6: the remaining (outlier)
// network across ISC iterations with the partial selection strategy.
type Figure56Result struct {
	Iterations []IterationView
	// FinalOutlierRatio is the outlier ratio when ISC stops (the paper
	// reports < 5% after 11 iterations on the 400×400 example).
	FinalOutlierRatio float64
}

// IterationView is one ISC round with renderings.
type IterationView struct {
	Index         int
	Placed        int     // clusters realized (red squares of Figure 6)
	Kept          int     // low-CP clusters left for re-clustering (yellow)
	OutlierRatio  float64 // after this round
	QuartileCP    float64
	RemainingView string // ASCII render of the remaining network
}

// Figure56Ctx traces ISC on an n-neuron sparse network, with cooperative
// cancellation of the ISC loop.
func Figure56Ctx(ctx context.Context, n int, seed int64, render bool) (*Figure56Result, error) {
	cm := SparseNet(n, seed)
	lib := xbar.DefaultLibrary()
	baseline := xbar.FullCro(cm, lib).AvgUtilization()
	remaining := cm.Clone()
	res, err := core.ISCCtx(ctx, cm, core.ISCOptions{
		Library:              lib,
		UtilizationThreshold: baseline,
		Rand:                 rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		return nil, err
	}
	out := &Figure56Result{}
	for _, it := range res.Trace {
		view := IterationView{
			Index:        it.Index,
			Placed:       it.Placed,
			OutlierRatio: it.OutlierRatio,
			QuartileCP:   it.QuartileCP,
		}
		for _, cs := range it.Clusters {
			if cs.Selected {
				remaining.RemoveWithin(cs.Cluster)
			} else if cs.Within > 0 {
				view.Kept++
			}
		}
		if render {
			view.RemainingView = viz.Matrix(remaining, nil, 50)
		}
		out.Iterations = append(out.Iterations, view)
		out.FinalOutlierRatio = it.OutlierRatio
	}
	return out, nil
}

// ------------------------------------------------------------ Figures 7-9

// ISCAnalysis reproduces one of Figures 7-9: the per-iteration efficacy
// analysis of ISC on a paper testbench.
type ISCAnalysis struct {
	Testbench hopfield.Testbench
	// OutlierRatio per iteration (subplot a).
	OutlierRatio []float64
	// NormalizedUtilization and AvgCP per iteration (subplot b);
	// utilization is normalized to the FullCro baseline utilization.
	NormalizedUtilization []float64
	AvgCP                 []float64
	// SizeHistogram of the final implementation (subplot c).
	SizeHistogram map[int]int
	// Fan distribution (subplot d): per-neuron fanin+fanout split by
	// medium, plus the average total normalized to the baseline.
	Fans            []xbar.FanInOut
	AvgSumRatio     float64 // avg total fanin+fanout vs FullCro baseline
	FinalOutliers   float64
	Iterations      int
	BaselineAvgUtil float64
}

// FigureISCCtx runs the analysis for the given testbench configuration,
// with cooperative cancellation of the ISC loop.
func FigureISCCtx(ctx context.Context, tb hopfield.Testbench, seed int64) (*ISCAnalysis, error) {
	cm, _, _ := tb.Build(seed)
	lib := xbar.DefaultLibrary()
	full := xbar.FullCro(cm, lib)
	baseline := full.AvgUtilization()
	res, err := core.ISCCtx(ctx, cm, core.ISCOptions{
		Library:              lib,
		UtilizationThreshold: baseline,
		Rand:                 rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		return nil, err
	}
	a := &ISCAnalysis{
		Testbench:       tb,
		SizeHistogram:   res.Assignment.SizeHistogram(),
		Fans:            res.Assignment.FanInOuts(),
		FinalOutliers:   res.Assignment.OutlierRatio(),
		Iterations:      len(res.Trace),
		BaselineAvgUtil: baseline,
	}
	for _, it := range res.Trace {
		a.OutlierRatio = append(a.OutlierRatio, it.OutlierRatio)
		norm := 0.0
		if baseline > 0 {
			norm = it.AvgUtilization / baseline
		}
		a.NormalizedUtilization = append(a.NormalizedUtilization, norm)
		a.AvgCP = append(a.AvgCP, it.AvgPreference)
	}
	// Average total fanin+fanout vs the baseline design.
	sumISC, sumBase := 0, 0
	for _, f := range a.Fans {
		sumISC += f.Sum()
	}
	for _, f := range full.FanInOuts() {
		sumBase += f.Sum()
	}
	if sumBase > 0 {
		a.AvgSumRatio = float64(sumISC) / float64(sumBase)
	}
	return a, nil
}

// ---------------------------------------------------------------- Table 1

// Table1Row is one testbench's physical design comparison.
type Table1Row struct {
	Testbench  hopfield.Testbench
	AutoNCS    cost.Report
	FullCro    cost.Report
	Reductions struct {
		Wirelength, Area, Delay float64 // percent
	}
}

// Table1Result is the full cost evaluation table plus averages.
type Table1Result struct {
	Rows []Table1Row
	Avg  struct {
		Wirelength, Area, Delay float64
	}
}

// designOf runs netlist → place → route → cost for an assignment, honouring
// ctx in the place and route loops.
func designOf(ctx context.Context, a *xbar.Assignment, dev xbar.DeviceModel) (*cost.Report, *netlist.Netlist, *place.Result, *route.Result, error) {
	nl, err := netlist.Build(a, dev)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	pl, err := place.PlaceCtx(ctx, nl, place.DefaultOptions())
	if err != nil {
		return nil, nil, nil, nil, err
	}
	rt, err := route.RouteCtx(ctx, nl, pl, route.DefaultOptions())
	if err != nil {
		return nil, nil, nil, nil, err
	}
	rep, err := cost.Evaluate(nl, pl, rt, dev, cost.DefaultParams())
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return rep, nl, pl, rt, nil
}

// Table1BenchCtx evaluates one testbench configuration (scaled or full),
// with cooperative cancellation of the ISC, placement, and routing loops.
func Table1BenchCtx(ctx context.Context, tb hopfield.Testbench, seed int64) (*Table1Row, error) {
	cm, _, _ := tb.Build(seed)
	lib := xbar.DefaultLibrary()
	dev := xbar.Default45nm()
	full := xbar.FullCro(cm, lib)
	iscRes, err := core.ISCCtx(ctx, cm, core.ISCOptions{
		Library:              lib,
		UtilizationThreshold: full.AvgUtilization(),
		Rand:                 rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		return nil, err
	}
	autoRep, _, _, _, err := designOf(ctx, iscRes.Assignment, dev)
	if err != nil {
		return nil, err
	}
	fullRep, _, _, _, err := designOf(ctx, full, dev)
	if err != nil {
		return nil, err
	}
	row := &Table1Row{Testbench: tb, AutoNCS: *autoRep, FullCro: *fullRep}
	row.Reductions.Wirelength = cost.Reduction(autoRep.Wirelength, fullRep.Wirelength)
	row.Reductions.Area = cost.Reduction(autoRep.Area, fullRep.Area)
	row.Reductions.Delay = cost.Reduction(autoRep.AvgDelay, fullRep.AvgDelay)
	return row, nil
}

// Table1Ctx evaluates the given testbenches and averages the reductions,
// with cooperative cancellation between and within testbench evaluations.
func Table1Ctx(ctx context.Context, tbs []hopfield.Testbench, seed int64) (*Table1Result, error) {
	out := &Table1Result{}
	for _, tb := range tbs {
		row, err := Table1BenchCtx(ctx, tb, seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: testbench %d: %w", tb.ID, err)
		}
		out.Rows = append(out.Rows, *row)
		out.Avg.Wirelength += row.Reductions.Wirelength
		out.Avg.Area += row.Reductions.Area
		out.Avg.Delay += row.Reductions.Delay
	}
	if n := float64(len(out.Rows)); n > 0 {
		out.Avg.Wirelength /= n
		out.Avg.Area /= n
		out.Avg.Delay /= n
	}
	return out, nil
}

// --------------------------------------------------------------- Figure 10

// Figure10Result holds the placement and congestion renderings of
// testbench 3 under FullCro and AutoNCS.
type Figure10Result struct {
	FullCroLayout      string
	FullCroCongestion  string
	AutoNCSLayout      string
	AutoNCSCongestion  string
	FullCroPeakUsage   int
	AutoNCSPeakUsage   int
	FullCroArea        float64
	AutoNCSArea        float64
	FullCroWirelength  float64
	AutoNCSWirelength  float64
	FullCroRelaxations int
	AutoNCSRelaxations int
}

// Figure10Ctx places and routes both designs of the given testbench and
// renders Figure 10's four panels, with cooperative cancellation of the
// ISC, placement, and routing loops.
func Figure10Ctx(ctx context.Context, tb hopfield.Testbench, seed int64) (*Figure10Result, error) {
	cm, _, _ := tb.Build(seed)
	lib := xbar.DefaultLibrary()
	dev := xbar.Default45nm()
	full := xbar.FullCro(cm, lib)
	iscRes, err := core.ISCCtx(ctx, cm, core.ISCOptions{
		Library:              lib,
		UtilizationThreshold: full.AvgUtilization(),
		Rand:                 rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		return nil, err
	}
	out := &Figure10Result{}
	fullRep, fullNl, fullPl, fullRt, err := designOf(ctx, full, dev)
	if err != nil {
		return nil, err
	}
	autoRep, autoNl, autoPl, autoRt, err := designOf(ctx, iscRes.Assignment, dev)
	if err != nil {
		return nil, err
	}
	out.FullCroLayout = viz.Layout(fullNl, fullPl, 78, 36)
	out.FullCroCongestion = viz.Congestion(fullRt, 78)
	out.AutoNCSLayout = viz.Layout(autoNl, autoPl, 78, 36)
	out.AutoNCSCongestion = viz.Congestion(autoRt, 78)
	out.FullCroPeakUsage = fullRt.MaxUsage()
	out.AutoNCSPeakUsage = autoRt.MaxUsage()
	out.FullCroArea = fullRep.Area
	out.AutoNCSArea = autoRep.Area
	out.FullCroWirelength = fullRep.Wirelength
	out.AutoNCSWirelength = autoRep.Wirelength
	out.FullCroRelaxations = fullRt.Relaxations
	out.AutoNCSRelaxations = autoRt.Relaxations
	return out, nil
}
