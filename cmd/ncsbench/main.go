// Command ncsbench regenerates every table and figure of the paper's
// evaluation section (DAC'15, Section 4) and prints them in a terminal
// rendition: Figure 3 (MSC before/after), Figure 4 (GCP vs traversing),
// Figures 5-6 (ISC iterations on the 400×400 example), Figures 7-9 (ISC
// efficacy per testbench), Figure 10 (placement and congestion maps of
// testbench 3), and Table 1 (wirelength/area/delay vs the FullCro
// baseline).
//
// The full paper-scale run takes several minutes; -quick runs scaled-down
// versions of everything in well under a minute.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime/pprof"
	"sort"
	"text/tabwriter"
	"time"

	autoncs "repro"
	"repro/internal/experiments"
	"repro/internal/hopfield"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/viz"
)

func main() {
	var (
		quick   = flag.Bool("quick", false, "run scaled-down versions of every experiment")
		only    = flag.String("only", "", "run a single experiment: fig3, fig4, fig56, fig7, fig8, fig9, fig10, table1, place, route, compile, cluster, reliability, fidelity, compile2000, compile10k, delta")
		seed    = flag.Int64("seed", 1, "random seed")
		workers = flag.Int("workers", 0, "worker pool size for the parallel kernels (0 = NumCPU; results are identical for any value)")
		large   = flag.Bool("large", false, "also run compile2000, the 2000-neuron cluster-only compile (minutes of CPU time)")
		verbose = flag.Bool("v", false, "log compile stage boundaries and ISC iterations to stderr")
		trace   = flag.Bool("trace", false, "log every compile event to stderr, including placement checkpoints and route batches (implies -v)")

		benchout   = flag.String("benchout", "", "write a machine-readable JSON benchmark report (per-stage wall time, allocations, paper metrics) to this file")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile (taken after all stages) to this file")

		baselineWall   = flag.Float64("baseline-wall", 0, "pre-optimization wall seconds of the -baseline-stage stage to embed in the report")
		baselineAllocs = flag.Uint64("baseline-allocs", 0, "pre-optimization allocation count of the -baseline-stage stage to embed in the report")
		baselineRef    = flag.String("baseline-ref", "", "description of the baseline build (e.g. a commit) for the report")
		baselineStage  = flag.String("baseline-stage", "compile2000", "stage the baseline numbers refer to (speedup ratios compare against it)")
	)
	flag.Parse()
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "invalid -workers %d (want ≥ 0)\n", *workers)
		os.Exit(2)
	}
	parallel.SetDefault(*workers)

	// Ctrl-C cancels the current experiment cooperatively; the run exits
	// with the conventional 130 once the in-flight stage unwinds.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	var rec *reporter
	if *benchout != "" {
		rec = newReporter(*seed, *workers, *quick, *large)
	}

	n := 400
	maxSize := 64
	tbs := hopfield.Testbenches()
	if *quick {
		n = 150
		maxSize = 32
		for i := range tbs {
			tbs[i].M = 6 + 2*i
			tbs[i].N = 100 + 40*i
			tbs[i].Sparsity = 0.93
		}
	}

	observer := stderrObserver(*verbose, *trace)

	run := func(name string, f func() error) {
		if *only != "" && *only != name {
			return
		}
		if err := rec.run(name, f); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "interrupted")
				os.Exit(130)
			}
			os.Exit(1)
		}
	}

	run("fig3", func() error { return figure3(n, maxSize, *seed, rec) })
	run("fig4", func() error { return figure4(n, maxSize, *seed, rec) })
	run("fig56", func() error { return figure56(ctx, n, *seed, rec) })
	run("fig7", func() error { return figureISC(ctx, tbs[0], 7, *seed, rec) })
	run("fig8", func() error { return figureISC(ctx, tbs[1], 8, *seed, rec) })
	run("fig9", func() error { return figureISC(ctx, tbs[2], 9, *seed, rec) })
	run("fig10", func() error { return figure10(ctx, tbs[2], *seed, rec) })
	run("table1", func() error { return table1(ctx, tbs, *seed, rec) })
	run("place", func() error { return placeStage(ctx, n, *seed, *workers, rec) })
	run("route", func() error { return routeStage(ctx, n, *seed, *workers, rec) })
	run("compile", func() error { return compileBreakdown(ctx, n, *seed, *workers, observer, rec) })
	run("cluster", func() error { return clusterStage(ctx, *quick, *seed, *workers, observer, rec) })
	run("reliability", func() error { return reliability(*quick, *seed) })
	run("fidelity", func() error { return fidelity(*quick, *seed) })
	if *large || *only == "compile2000" {
		run("compile2000", func() error { return compile2000(ctx, *seed, *workers, observer, rec) })
	}
	if *large || *quick || *only == "compile10k" {
		run("compile10k", func() error { return compile10k(ctx, *quick, *seed, *workers, observer, rec) })
	}
	if *large || *quick || *only == "delta" {
		run("delta", func() error { return deltaStage(ctx, *quick, *seed, *workers, observer, rec) })
	}

	rec.setBaseline(*baselineStage, *baselineRef, *baselineWall, *baselineAllocs)
	if *benchout != "" {
		if err := rec.write(*benchout); err != nil {
			fmt.Fprintf(os.Stderr, "benchout: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nbenchmark report written to %s\n", *benchout)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}
}

// stderrObserver maps the -v/-trace flags to a slog observer on stderr:
// -v shows stage boundaries, ISC iterations, and relaxations (Info); -trace
// additionally shows placement checkpoints and route batches (Debug).
func stderrObserver(verbose, trace bool) autoncs.Observer {
	if !verbose && !trace {
		return nil
	}
	level := slog.LevelInfo
	if trace {
		level = slog.LevelDebug
	}
	h := slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})
	return autoncs.NewSlogObserver(slog.New(h))
}

// compileBreakdown runs one full physical compile and reports where the
// wall time goes, stage by stage, through Result.StageTimes.
func compileBreakdown(ctx context.Context, n int, seed int64, workers int, ob autoncs.Observer, rec *reporter) error {
	header(fmt.Sprintf("compile — full-flow stage breakdown (%d neurons)", n))
	net := autoncs.RandomSparseNetwork(n, 0.94, seed)
	cfg := autoncs.DefaultConfig()
	cfg.Seed = seed
	cfg.Workers = workers
	cfg.Observer = ob
	res, err := autoncs.CompileCtx(ctx, net, cfg)
	if err != nil {
		return err
	}
	total := time.Duration(0)
	for _, s := range autoncs.Stages() {
		total += res.StageTimes[s]
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "stage\twall time\tshare")
	for _, s := range autoncs.Stages() {
		d := res.StageTimes[s]
		share := 0.0
		if total > 0 {
			share = float64(d) / float64(total)
		}
		fmt.Fprintf(w, "%s\t%v\t%.1f%%\n", s, d.Round(time.Microsecond), 100*share)
	}
	fmt.Fprintf(w, "total\t%v\t\n", total.Round(time.Microsecond))
	w.Flush()
	fmt.Printf("cost: wirelength %.1f µm, area %.2f µm², avg delay %.3f ns\n",
		res.Report.Wirelength, res.Report.Area, res.Report.AvgDelay)
	rec.stageTimes(res.StageTimes)
	rec.metric("total_seconds", total.Seconds())
	rec.metric("wirelength_um", res.Report.Wirelength)
	return nil
}

// compile2000 is the large-scale stage: the same 2000-neuron cluster-only
// compile BenchmarkCompile2000 times (the regime the paper's introduction
// motivates), run once so the report captures paper-scale wall time and
// allocation behaviour. Since the multilevel engine landed this stage runs
// it (the flat engine spent the entire 1443s baseline wall in clustering);
// the engine counters go into the report alongside the quality metrics.
//
// The stopping threshold is explicit: for this network the auto threshold
// (the FullCro baseline's 0.014 average utilization) never binds — every
// ISC round stays above it, so the loop used to run to exhaustion and
// report a degenerate all-crossbar result with zero discrete synapses.
// 0.04 stops the loop once placed-crossbar utilization decays below 4%,
// leaving the thin remainder as discrete synapses like the paper's hybrid
// flow intends (and like compile10k already reports).
func compile2000(ctx context.Context, seed int64, workers int, ob autoncs.Observer, rec *reporter) error {
	header("compile2000 — 2000-neuron cluster-only compile (multilevel engine)")
	net := autoncs.RandomSparseNetwork(2000, 0.985, seed)
	cfg := autoncs.DefaultConfig()
	cfg.SkipPhysical = true
	cfg.Workers = workers
	cfg.Multilevel = true
	cfg.UtilizationThreshold = 0.04
	m := &autoncs.MetricsObserver{}
	cfg.Observer = obs.Multi(ob, m)
	res, err := autoncs.CompileCtx(ctx, net, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("crossbars: %d, synapses: %d, outliers %.1f%%, %d ISC iterations\n",
		len(res.Assignment.Crossbars), len(res.Assignment.Synapses),
		100*res.Assignment.OutlierRatio(), len(res.Trace))
	cs := m.Snapshot().LastClusterStats
	fmt.Printf("engine: %d multilevel + %d flat rounds, depth %d, %d eigensolves, %d refine moves\n",
		cs.MultilevelRounds, cs.FlatRounds, cs.MaxDepth, cs.Eigensolves, cs.RefineMoves)
	rec.stageTimes(res.StageTimes)
	rec.metric("crossbars", float64(len(res.Assignment.Crossbars)))
	rec.metric("synapses", float64(len(res.Assignment.Synapses)))
	rec.metric("outlier_ratio", res.Assignment.OutlierRatio())
	rec.metric("isc_iterations", float64(len(res.Trace)))
	rec.metric("multilevel_rounds", float64(cs.MultilevelRounds))
	rec.metric("flat_rounds", float64(cs.FlatRounds))
	rec.metric("eigensolves", float64(cs.Eigensolves))
	rec.metric("refine_moves", float64(cs.RefineMoves))
	return nil
}

// compile10k is the new scale testbench the multilevel engine unlocks: a
// 10000-neuron cluster-only compile, far beyond what the flat spectral
// engine can touch in reasonable time. The -quick variant keeps all 10k
// neurons but thins the connectivity so CI's bench-smoke can afford it.
func compile10k(ctx context.Context, quick bool, seed int64, workers int, ob autoncs.Observer, rec *reporter) error {
	const n = 10000
	sparsity := 0.9985
	if quick {
		sparsity = 0.9995
	}
	header(fmt.Sprintf("compile10k — %d-neuron cluster-only compile (multilevel engine, sparsity %g)", n, sparsity))
	net := autoncs.RandomSparseNetwork(n, sparsity, seed)
	cfg := autoncs.DefaultConfig()
	cfg.SkipPhysical = true
	cfg.Workers = workers
	cfg.Multilevel = true
	m := &autoncs.MetricsObserver{}
	cfg.Observer = obs.Multi(ob, m)
	res, err := autoncs.CompileCtx(ctx, net, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("connections: %d, crossbars: %d, synapses: %d, outliers %.1f%%, %d ISC iterations\n",
		net.NNZ(), len(res.Assignment.Crossbars), len(res.Assignment.Synapses),
		100*res.Assignment.OutlierRatio(), len(res.Trace))
	cs := m.Snapshot().LastClusterStats
	fmt.Printf("engine: %d multilevel + %d flat rounds, depth %d, %d matchings, %d eigensolves, %d refine moves\n",
		cs.MultilevelRounds, cs.FlatRounds, cs.MaxDepth, cs.Matchings, cs.Eigensolves, cs.RefineMoves)
	rec.stageTimes(res.StageTimes)
	rec.metric("connections", float64(net.NNZ()))
	rec.metric("crossbars", float64(len(res.Assignment.Crossbars)))
	rec.metric("synapses", float64(len(res.Assignment.Synapses)))
	rec.metric("outlier_ratio", res.Assignment.OutlierRatio())
	rec.metric("isc_iterations", float64(len(res.Trace)))
	rec.metric("multilevel_rounds", float64(cs.MultilevelRounds))
	rec.metric("eigensolves", float64(cs.Eigensolves))
	rec.metric("refine_moves", float64(cs.RefineMoves))
	return nil
}

// clusterStage benchmarks the clustering stage in isolation: the same
// network compiled (cluster-only) through the flat spectral engine and the
// multilevel engine, with wall time, crossbar count, and outlier quality
// side by side — the explicit quality accounting of the multilevel path.
func clusterStage(ctx context.Context, quick bool, seed int64, workers int, ob autoncs.Observer, rec *reporter) error {
	n, sparsity, cutoff := 1000, 0.99, 256
	if quick {
		n, sparsity, cutoff = 400, 0.97, 128
	}
	header(fmt.Sprintf("cluster — flat vs multilevel clustering engine (%d neurons)", n))
	net := autoncs.RandomSparseNetwork(n, sparsity, seed)
	type outcome struct {
		wall      time.Duration
		crossbars int
		synapses  int
		iters     int
		outliers  float64
		stats     autoncs.MetricsSnapshot
	}
	engine := func(multilevel bool) (outcome, error) {
		cfg := autoncs.DefaultConfig()
		cfg.Seed = seed
		cfg.SkipPhysical = true
		cfg.Workers = workers
		cfg.Multilevel = multilevel
		cfg.MultilevelCutoff = cutoff
		m := &autoncs.MetricsObserver{}
		cfg.Observer = obs.Multi(ob, m)
		start := time.Now()
		res, err := autoncs.CompileCtx(ctx, net, cfg)
		if err != nil {
			return outcome{}, err
		}
		return outcome{
			wall:      time.Since(start),
			crossbars: len(res.Assignment.Crossbars),
			synapses:  len(res.Assignment.Synapses),
			iters:     len(res.Trace),
			outliers:  res.Assignment.OutlierRatio(),
			stats:     m.Snapshot(),
		}, nil
	}
	flat, err := engine(false)
	if err != nil {
		return err
	}
	ml, err := engine(true)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "engine\twall time\tcrossbars\tsynapses\toutliers\titerations")
	fmt.Fprintf(w, "flat\t%v\t%d\t%d\t%.2f%%\t%d\n",
		flat.wall.Round(time.Millisecond), flat.crossbars, flat.synapses, 100*flat.outliers, flat.iters)
	fmt.Fprintf(w, "multilevel\t%v\t%d\t%d\t%.2f%%\t%d\n",
		ml.wall.Round(time.Millisecond), ml.crossbars, ml.synapses, 100*ml.outliers, ml.iters)
	w.Flush()
	speedup := float64(flat.wall) / float64(ml.wall)
	cs := ml.stats.LastClusterStats
	fmt.Printf("multilevel speedup: %.2fx (cutoff %d)\n", speedup, cutoff)
	fmt.Printf("engine: %d multilevel + %d flat rounds, depth %d, %d matchings, %d eigensolves, %d refine moves\n",
		cs.MultilevelRounds, cs.FlatRounds, cs.MaxDepth, cs.Matchings, cs.Eigensolves, cs.RefineMoves)
	rec.metric("flat_seconds", flat.wall.Seconds())
	rec.metric("multilevel_seconds", ml.wall.Seconds())
	rec.metric("cluster_speedup", speedup)
	rec.metric("flat_crossbars", float64(flat.crossbars))
	rec.metric("multilevel_crossbars", float64(ml.crossbars))
	rec.metric("flat_outlier_ratio", flat.outliers)
	rec.metric("multilevel_outlier_ratio", ml.outliers)
	rec.metric("multilevel_eigensolves", float64(cs.Eigensolves))
	rec.metric("multilevel_refine_moves", float64(cs.RefineMoves))
	return nil
}

// fidelity verifies the implicit functional claim of Section 3 ("our
// design maintains the topology of the original NCS"): Hopfield recall
// executed through the compiled hybrid hardware retains software-level
// recognition, with and without stuck-at defects repaired into synapses.
func fidelity(quick bool, seed int64) error {
	header("Hardware-in-the-loop recognition fidelity")
	tb := hopfield.Testbench{ID: 1, M: 8, N: 160, Sparsity: 0.93}
	if quick {
		tb = hopfield.Testbench{ID: 1, M: 5, N: 80, Sparsity: 0.9}
	}
	fmt.Println("defects | crossbars | synapses | software rate | hardware rate")
	for _, rate := range []float64{0, 0.02} {
		res, err := experiments.Fidelity(tb, 0.05, rate, seed)
		if err != nil {
			return err
		}
		fmt.Printf("  %4.1f%% |   %4d    |   %4d   |     %3.0f%%      |     %3.0f%%\n",
			100*rate, res.Crossbars, res.Synapses, 100*res.SoftwareRate, 100*res.HardwareRate)
	}
	return nil
}

// reliability reproduces the paper's motivating constraint (Section 2.1,
// citing [6]): crossbar read reliability versus size under IR drop and
// process variation, which caps the library at 64×64.
func reliability(quick bool, seed int64) error {
	header("Crossbar reliability vs size (the ≤64 constraint of Section 2.1)")
	sizes := []int{16, 32, 48, 64, 80, 96}
	trials := 10
	if quick {
		sizes = []int{16, 32, 48, 64}
		trials = 4
	}
	sweep, err := experiments.Reliability(sizes, trials, 0.3, seed)
	if err != nil {
		return err
	}
	fmt.Println("size | exact-read rate | worst IR sag | mean column count error")
	for _, pt := range sweep.Points {
		fmt.Printf(" %3d |      %4.2f       |    %5.1f%%    |  %.2f\n",
			pt.Size, pt.Rate, 100*pt.WorstSag, pt.MeanColErr)
	}
	fmt.Printf("reliability knee: %d (the paper's library tops out at 64)\n", sweep.Knee())
	return nil
}

func header(s string) {
	fmt.Printf("\n================ %s ================\n", s)
}

func figure3(n, maxSize int, seed int64, rec *reporter) error {
	header("Figure 3 — Modified Spectral Clustering (MSC)")
	res, err := experiments.Figure3(n, maxSize, seed)
	if err != nil {
		return err
	}
	fmt.Printf("network: %d neurons, %d connections\n", res.N, res.Connections)
	fmt.Printf("clusters: %d, outlier ratio after one MSC pass: %.1f%% (paper: 57%% on its example)\n",
		len(res.Clusters), 100*res.OutlierRatio)
	rec.metric("clusters", float64(len(res.Clusters)))
	rec.metric("outlier_ratio", res.OutlierRatio)
	fmt.Println("\n(a) original connection matrix:")
	fmt.Println(res.Before)
	fmt.Println("(b) clustered (neurons permuted by cluster):")
	fmt.Println(res.After)
	return nil
}

func figure4(n, maxSize int, seed int64, rec *reporter) error {
	header("Figure 4 — GCP vs traversing")
	res, err := experiments.Figure4(n, maxSize, seed)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "method\tclusters\tmax size\twithin-cluster\ttime")
	fmt.Fprintf(w, "GCP\t%d\t%d\t%.1f%%\t%v\n",
		res.GCP.Clusters, res.GCP.MaxSize, 100*res.GCP.WithinRatio, res.GCP.Elapsed)
	fmt.Fprintf(w, "traversing\t%d\t%d\t%.1f%%\t%v\n",
		res.Traversing.Clusters, res.Traversing.MaxSize, 100*res.Traversing.WithinRatio, res.Traversing.Elapsed)
	w.Flush()
	speedup := float64(res.Traversing.Elapsed) / float64(res.GCP.Elapsed)
	fmt.Printf("GCP speedup: %.2fx (paper: 190ms vs 106ms ≈ 1.8x)\n", speedup)
	rec.metric("gcp_seconds", res.GCP.Elapsed.Seconds())
	rec.metric("traversing_seconds", res.Traversing.Elapsed.Seconds())
	rec.metric("gcp_speedup", speedup)
	return nil
}

func figure56(ctx context.Context, n int, seed int64, rec *reporter) error {
	header("Figures 5 & 6 — ISC iterations (remaining network)")
	res, err := experiments.Figure56Ctx(ctx, n, seed, true)
	if err != nil {
		return err
	}
	for _, it := range res.Iterations {
		fmt.Printf("iteration %d: placed %d clusters (kept %d low-CP), quartile CP %.2f, outliers %.1f%%\n",
			it.Index, it.Placed, it.Kept, it.QuartileCP, 100*it.OutlierRatio)
	}
	last := res.Iterations[len(res.Iterations)-1]
	fmt.Printf("\nremaining network after iteration %d (%.1f%% outliers; paper: <5%% after 11):\n%s\n",
		last.Index, 100*res.FinalOutlierRatio, last.RemainingView)
	rec.metric("iterations", float64(len(res.Iterations)))
	rec.metric("final_outlier_ratio", res.FinalOutlierRatio)
	return nil
}

func figureISC(ctx context.Context, tb hopfield.Testbench, figNo int, seed int64, rec *reporter) error {
	header(fmt.Sprintf("Figure %d — ISC efficacy, testbench %d (M=%d, N=%d)", figNo, tb.ID, tb.M, tb.N))
	a, err := experiments.FigureISCCtx(ctx, tb, seed)
	if err != nil {
		return err
	}
	fmt.Println("(a) outlier ratio per iteration:")
	for i, v := range a.OutlierRatio {
		fmt.Printf("  iter %2d: %5.1f%%  %s\n", i+1, 100*v, bar(v, 40))
	}
	fmt.Println("(b) normalized crossbar utilization (u/u_baseline) and avg CP per iteration:")
	for i := range a.NormalizedUtilization {
		fmt.Printf("  iter %2d: u/u0 %5.2f, CP %5.2f\n", i+1, a.NormalizedUtilization[i], a.AvgCP[i])
	}
	fmt.Println("(c) crossbar size distribution:")
	sizes := make([]int, 0, len(a.SizeHistogram))
	for s := range a.SizeHistogram {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	counts := make([]int, len(sizes))
	for i, s := range sizes {
		counts[i] = a.SizeHistogram[s]
	}
	fmt.Print(viz.Histogram(sizes, counts, 40))
	fmt.Println("(d) fanin+fanout by medium:")
	crossOnly, synOnly, both, neither := 0, 0, 0, 0
	for _, f := range a.Fans {
		switch {
		case f.Crossbar > 0 && f.Synapse > 0:
			both++
		case f.Crossbar > 0:
			crossOnly++
		case f.Synapse > 0:
			synOnly++
		default:
			neither++
		}
	}
	fmt.Printf("  neurons on crossbars only: %d, synapses only: %d, both: %d, unconnected: %d\n",
		crossOnly, synOnly, both, neither)
	fmt.Printf("  avg total fanin+fanout vs baseline: %.0f%% (paper: ≈80%%)\n", 100*a.AvgSumRatio)
	fmt.Printf("summary: %d iterations, final outliers %.1f%% \n", a.Iterations, 100*a.FinalOutliers)
	rec.metric("iterations", float64(a.Iterations))
	rec.metric("final_outlier_ratio", a.FinalOutliers)
	rec.metric("avg_fan_ratio", a.AvgSumRatio)
	return nil
}

func bar(v float64, width int) string {
	n := int(v * float64(width))
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}

func figure10(ctx context.Context, tb hopfield.Testbench, seed int64, rec *reporter) error {
	header("Figure 10 — placement & routing of testbench 3")
	res, err := experiments.Figure10Ctx(ctx, tb, seed)
	if err != nil {
		return err
	}
	fmt.Printf("(a) FullCro placement (area %.0f µm²):\n%s\n", res.FullCroArea, res.FullCroLayout)
	fmt.Printf("(b) FullCro congestion (peak %d wires/bin, %d capacity relaxations):\n%s\n",
		res.FullCroPeakUsage, res.FullCroRelaxations, res.FullCroCongestion)
	fmt.Printf("(c) AutoNCS placement (area %.0f µm²):\n%s\n", res.AutoNCSArea, res.AutoNCSLayout)
	fmt.Printf("(d) AutoNCS congestion (peak %d wires/bin, %d capacity relaxations):\n%s\n",
		res.AutoNCSPeakUsage, res.AutoNCSRelaxations, res.AutoNCSCongestion)
	fmt.Printf("wirelength: AutoNCS %.0f µm vs FullCro %.0f µm\n", res.AutoNCSWirelength, res.FullCroWirelength)
	rec.metric("autoncs_wirelength_um", res.AutoNCSWirelength)
	rec.metric("fullcro_wirelength_um", res.FullCroWirelength)
	rec.metric("autoncs_peak_usage", float64(res.AutoNCSPeakUsage))
	rec.metric("fullcro_peak_usage", float64(res.FullCroPeakUsage))
	return nil
}

func table1(ctx context.Context, tbs []hopfield.Testbench, seed int64, rec *reporter) error {
	header("Table 1 — physical design cost evaluation")
	res, err := experiments.Table1Ctx(ctx, tbs, seed)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "testbench\t\ttotal wirelength (µm)\tarea (µm²)\tdelay (ns)")
	for _, row := range res.Rows {
		fmt.Fprintf(w, "%d\tAutoNCS\t%.1f\t%.2f\t%.2f\n",
			row.Testbench.ID, row.AutoNCS.Wirelength, row.AutoNCS.Area, row.AutoNCS.AvgDelay)
		fmt.Fprintf(w, "\tFullCro\t%.1f\t%.2f\t%.2f\n",
			row.FullCro.Wirelength, row.FullCro.Area, row.FullCro.AvgDelay)
		fmt.Fprintf(w, "\tReduc. (%%)\t%.2f%%\t%.2f%%\t%.2f%%\n",
			row.Reductions.Wirelength, row.Reductions.Area, row.Reductions.Delay)
	}
	w.Flush()
	fmt.Printf("\naverage reductions: wirelength %.2f%%, area %.2f%%, delay %.2f%%\n",
		res.Avg.Wirelength, res.Avg.Area, res.Avg.Delay)
	fmt.Println("paper:              wirelength 47.80%, area 31.97%, delay 47.18%")
	rec.metric("avg_wirelength_reduction_pct", res.Avg.Wirelength)
	rec.metric("avg_area_reduction_pct", res.Avg.Area)
	rec.metric("avg_delay_reduction_pct", res.Avg.Delay)
	return nil
}
