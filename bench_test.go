// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus ablations of the design choices called out in
// DESIGN.md. Each benchmark runs a scaled-down instance (the full
// paper-scale experiments take minutes each and live in cmd/ncsbench;
// `go run ./cmd/ncsbench` regenerates the paper numbers) and reports the
// experiment's headline metric through b.ReportMetric, so the harness both
// times the flow and regenerates the result shapes.
package autoncs_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/hopfield"
	"repro/internal/xbar"
)

// Benchmark scale: chosen so the whole suite completes in a few minutes.
const (
	benchN       = 150
	benchMaxSize = 48
	benchSeed    = 1
)

func benchTB(id int) hopfield.Testbench {
	// Scaled versions of the paper's three testbenches, preserving their
	// relative ordering in N and the ~94% sparsity regime.
	return hopfield.Testbench{ID: id, M: 4 + 2*id, N: 80 + 40*id, Sparsity: 0.94}
}

// BenchmarkFigure3MSC regenerates Figure 3: one modified-spectral-
// clustering pass over a sparse network. Reported metric: outlier ratio
// after the single pass.
func BenchmarkFigure3MSC(b *testing.B) {
	var outliers float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3(benchN, benchMaxSize, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		outliers = res.OutlierRatio
	}
	b.ReportMetric(100*outliers, "outlier_%")
}

// BenchmarkFigure4GCP and BenchmarkFigure4Traversing regenerate Figure 4:
// the two cluster-size-control algorithms on the same network. Comparing
// their ns/op is the paper's runtime comparison (106 ms vs 190 ms).
func BenchmarkFigure4GCP(b *testing.B) {
	cm := experiments.SparseNet(benchN, benchSeed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GCP(cm, benchMaxSize, rand.New(rand.NewSource(benchSeed))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4Traversing(b *testing.B) {
	cm := experiments.SparseNet(benchN, benchSeed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Traversing(cm, benchMaxSize, rand.New(rand.NewSource(benchSeed))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5Iteration regenerates Figure 5: one clustering round on
// the remaining (outlier) network after peeling the first round's clusters.
func BenchmarkFigure5Iteration(b *testing.B) {
	cm := experiments.SparseNet(benchN, benchSeed)
	rng := rand.New(rand.NewSource(benchSeed))
	clusters, err := core.GCP(cm, benchMaxSize, rng)
	if err != nil {
		b.Fatal(err)
	}
	remaining := cm.Clone()
	for _, cl := range clusters {
		remaining.RemoveWithin(cl)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GCP(remaining, benchMaxSize, rand.New(rand.NewSource(benchSeed))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6ISC regenerates Figure 6: the full iterative spectral
// clustering trace with partial selection. Reported metric: final outlier
// percentage (paper: <5% after 11 iterations on its example).
func BenchmarkFigure6ISC(b *testing.B) {
	var final float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure56Ctx(context.Background(), benchN, benchSeed, false)
		if err != nil {
			b.Fatal(err)
		}
		final = res.FinalOutlierRatio
	}
	b.ReportMetric(100*final, "outlier_%")
}

// benchmarkFigureISC regenerates one of Figures 7-9: the per-testbench ISC
// efficacy analysis. Reported metrics: iterations to converge and the
// average fanin+fanout ratio versus the baseline (paper: ≈0.8).
func benchmarkFigureISC(b *testing.B, id int) {
	var a *experiments.ISCAnalysis
	for i := 0; i < b.N; i++ {
		var err error
		a, err = experiments.FigureISCCtx(context.Background(), benchTB(id), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(a.Iterations), "iterations")
	b.ReportMetric(a.AvgSumRatio, "fan_ratio")
}

func BenchmarkFigure7Testbench1(b *testing.B) { benchmarkFigureISC(b, 1) }
func BenchmarkFigure8Testbench2(b *testing.B) { benchmarkFigureISC(b, 2) }
func BenchmarkFigure9Testbench3(b *testing.B) { benchmarkFigureISC(b, 3) }

// BenchmarkFigure10Placement regenerates Figure 10: full placement and
// routing of both designs of (scaled) testbench 3. Reported metric: peak
// congestion ratio FullCro/AutoNCS (the paper's congestion maps show
// FullCro's centre far more congested).
func BenchmarkFigure10Placement(b *testing.B) {
	var res *experiments.Figure10Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Figure10Ctx(context.Background(), benchTB(3), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	if res.AutoNCSPeakUsage > 0 {
		b.ReportMetric(float64(res.FullCroPeakUsage)/float64(res.AutoNCSPeakUsage), "peak_congestion_ratio")
	}
}

// benchmarkTable1 regenerates one row of Table 1 (scaled): the full
// AutoNCS and FullCro flows with cost evaluation. Reported metrics: the
// three reductions of the paper's table.
func benchmarkTable1(b *testing.B, id int) {
	var row *experiments.Table1Row
	for i := 0; i < b.N; i++ {
		var err error
		row, err = experiments.Table1BenchCtx(context.Background(), benchTB(id), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.Reductions.Wirelength, "wirelength_reduction_%")
	b.ReportMetric(row.Reductions.Area, "area_reduction_%")
	b.ReportMetric(row.Reductions.Delay, "delay_reduction_%")
}

func BenchmarkTable1Testbench1(b *testing.B) { benchmarkTable1(b, 1) }
func BenchmarkTable1Testbench2(b *testing.B) { benchmarkTable1(b, 2) }
func BenchmarkTable1Testbench3(b *testing.B) { benchmarkTable1(b, 3) }

// ---------------------------------------------------------------- ablations

// iscWith runs ISC on the benchmark network with the given options applied.
func iscWith(b *testing.B, mutate func(*core.ISCOptions)) *core.ISCResult {
	b.Helper()
	cm := experiments.SparseNet(benchN, benchSeed)
	lib := xbar.DefaultLibrary()
	opts := core.ISCOptions{
		Library:              lib,
		UtilizationThreshold: xbar.FullCro(cm, lib).AvgUtilization(),
		Rand:                 rand.New(rand.NewSource(benchSeed)),
	}
	if mutate != nil {
		mutate(&opts)
	}
	res, err := core.ISC(cm, opts)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationPartialSelection compares the paper's top-quartile
// partial selection strategy against realizing every cluster each round.
// Reported metric: average utilization of the placed crossbars.
func BenchmarkAblationPartialSelection(b *testing.B) {
	b.Run("quartile", func(b *testing.B) {
		var u float64
		for i := 0; i < b.N; i++ {
			u = iscWith(b, nil).Assignment.AvgUtilization()
		}
		b.ReportMetric(u, "avg_utilization")
	})
	b.Run("select-all", func(b *testing.B) {
		var u float64
		for i := 0; i < b.N; i++ {
			u = iscWith(b, func(o *core.ISCOptions) { o.SelectionQuantile = -1 }).Assignment.AvgUtilization()
		}
		b.ReportMetric(u, "avg_utilization")
	})
}

// BenchmarkAblationThreshold sweeps the ISC stop threshold (×1, ×2, ×4 of
// the baseline utilization). Reported metric: outlier percentage.
func BenchmarkAblationThreshold(b *testing.B) {
	for _, mult := range []float64{1, 2, 4} {
		mult := mult
		b.Run(map[float64]string{1: "x1", 2: "x2", 4: "x4"}[mult], func(b *testing.B) {
			var out float64
			for i := 0; i < b.N; i++ {
				res := iscWith(b, func(o *core.ISCOptions) { o.UtilizationThreshold *= mult })
				out = res.Assignment.OutlierRatio()
			}
			b.ReportMetric(100*out, "outlier_%")
		})
	}
}

// BenchmarkAblationLibrary compares crossbar libraries of different
// granularity (the paper's 16..64 step 4, a coarse {16,32,64}, and the
// maximum size only). Reported metric: average crossbar utilization.
func BenchmarkAblationLibrary(b *testing.B) {
	libs := []struct {
		name  string
		sizes []int
	}{
		{"16..64step4", nil}, // nil = default
		{"16-32-64", []int{16, 32, 64}},
		{"64only", []int{64}},
	}
	for _, lc := range libs {
		lc := lc
		b.Run(lc.name, func(b *testing.B) {
			var u float64
			for i := 0; i < b.N; i++ {
				res := iscWith(b, func(o *core.ISCOptions) {
					if lc.sizes != nil {
						lib, err := xbar.NewLibrary(lc.sizes...)
						if err != nil {
							b.Fatal(err)
						}
						o.Library = lib
					}
				})
				u = res.Assignment.AvgUtilization()
			}
			b.ReportMetric(u, "avg_utilization")
		})
	}
}

// BenchmarkAblationWireWeights compares RC-derived wire weights against
// unit weights in the physical design. Reported metric: the mean routed
// length of the timing-critical (heaviest-quartile) wires — the quantity
// the RC weighting exists to shorten. (Average wire *delay* is insensitive
// here because device delay dwarfs wire RC at these die sizes.)
func BenchmarkAblationWireWeights(b *testing.B) {
	net := autoncs.RandomSparseNetwork(benchN, 0.94, benchSeed)
	criticalLen := func(res *autoncs.Result, weights []float64) float64 {
		sorted := append([]float64(nil), weights...)
		sort.Float64s(sorted)
		q := sorted[len(sorted)*3/4]
		sum, cnt := 0.0, 0
		for i := range weights {
			if weights[i] >= q {
				sum += res.Routing.WireLength[i]
				cnt++
			}
		}
		if cnt == 0 {
			return 0
		}
		return sum / float64(cnt)
	}
	run := func(b *testing.B, flattenWeights bool) float64 {
		cfg := autoncs.DefaultConfig()
		cfg.Seed = benchSeed
		var l float64
		for i := 0; i < b.N; i++ {
			res, err := autoncs.Compile(net, cfg)
			if err != nil {
				b.Fatal(err)
			}
			orig := make([]float64, len(res.Netlist.Wires))
			for j := range res.Netlist.Wires {
				orig[j] = res.Netlist.Wires[j].Weight
			}
			if flattenWeights {
				for j := range res.Netlist.Wires {
					res.Netlist.Wires[j].Weight = 1
				}
				if err := res.Redesign(cfg); err != nil {
					b.Fatal(err)
				}
			}
			l = criticalLen(res, orig)
		}
		return l
	}
	b.Run("rc-weights", func(b *testing.B) {
		b.ReportMetric(run(b, false), "critical_wire_um")
	})
	b.Run("unit-weights", func(b *testing.B) {
		b.ReportMetric(run(b, true), "critical_wire_um")
	})
}

// BenchmarkCompileEndToEnd times the complete public-API flow.
func BenchmarkCompileEndToEnd(b *testing.B) {
	net := autoncs.RandomSparseNetwork(benchN, 0.94, benchSeed)
	cfg := autoncs.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := autoncs.Compile(net, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScalabilityGCP1000 exercises the sparse (Lanczos) spectral path
// on a network well beyond the paper's testbench sizes — the scale the
// introduction motivates with 4000+-input deep networks. Reported metric:
// fraction of connections captured within the bounded clusters.
func BenchmarkScalabilityGCP1000(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	cm := graph.RandomClustered(1000, 50, 0.2, 0.001, rng)
	var captured float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clusters, err := core.GCP(cm, 64, rand.New(rand.NewSource(benchSeed)))
		if err != nil {
			b.Fatal(err)
		}
		within := 0
		for _, cl := range clusters {
			within += cm.CountWithin(cl)
		}
		captured = float64(within) / float64(cm.NNZ())
	}
	b.ReportMetric(captured, "within_ratio")
}

// BenchmarkFidelity measures the hardware-in-the-loop recognition check:
// compile, program the simulated devices, recall all patterns. Reported
// metric: hardware recognition rate (software-level is 1.0 at this scale).
func BenchmarkFidelity(b *testing.B) {
	tb := hopfield.Testbench{ID: 1, M: 5, N: 80, Sparsity: 0.9}
	var rate float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fidelity(tb, 0.05, 0.01, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		rate = res.HardwareRate
	}
	b.ReportMetric(rate, "hw_recognition")
}

// workerCounts returns the pool sizes the parallel benchmarks compare:
// the serial baseline and the machine's full width. On a 1-CPU runner the
// two coincide and the comparison is a no-op by construction.
func workerCounts() []int {
	counts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		counts = append(counts, n)
	}
	return counts
}

// BenchmarkCompileParallel times the complete public-API flow across
// worker-pool sizes. The determinism contract (see Config.Workers) means
// every sub-benchmark computes the identical result; only the wall clock
// may differ.
func BenchmarkCompileParallel(b *testing.B) {
	net := autoncs.RandomSparseNetwork(benchN, 0.94, benchSeed)
	for _, workers := range workerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := autoncs.DefaultConfig()
			cfg.Workers = workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := autoncs.Compile(net, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompileClusterOnlyParallel isolates the clustering flow (MSC +
// GCP + ISC), where the parallel spectral and k-means kernels dominate, on
// a mid-size network using the sparse Lanczos path.
func BenchmarkCompileClusterOnlyParallel(b *testing.B) {
	net := autoncs.RandomSparseNetwork(800, 0.97, benchSeed)
	for _, workers := range workerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := autoncs.DefaultConfig()
			cfg.SkipPhysical = true
			cfg.Workers = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := autoncs.Compile(net, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompile2000 is the large-scale testbench: a cluster-only
// compile of a 2000-neuron sparse network, the regime the paper's
// introduction motivates (4000+-input deep networks). A single iteration
// takes minutes (about 3.4 min at workers=1 on a 2-vCPU Xeon), so the
// benchmark is opt-out via -short — the Makefile's `bench` target skips it
// and `bench-large` runs it.
func BenchmarkCompile2000(b *testing.B) {
	if testing.Short() {
		b.Skip("minutes per op; run via `make bench-large`")
	}
	net := autoncs.RandomSparseNetwork(2000, 0.985, benchSeed)
	for _, workers := range workerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := autoncs.DefaultConfig()
			cfg.SkipPhysical = true
			cfg.Workers = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := autoncs.Compile(net, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGCP2000Parallel times one GCP pass at the 2000-neuron scale —
// the kernel that dominates BenchmarkCompile2000 — across pool sizes.
func BenchmarkGCP2000Parallel(b *testing.B) {
	if testing.Short() {
		b.Skip("about 8 s per op; run via `make bench-large`")
	}
	rng := rand.New(rand.NewSource(benchSeed))
	cm := graph.RandomClustered(2000, 50, 0.2, 0.0005, rng)
	for _, workers := range workerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.GCPN(cm, 64, rand.New(rand.NewSource(benchSeed)), workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
