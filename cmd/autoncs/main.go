// Command autoncs runs the AutoNCS flow on a network and prints the
// resulting implementation and physical-design report, optionally alongside
// the FullCro baseline.
//
// Usage:
//
//	autoncs -testbench 3            # one of the paper's Hopfield benches
//	autoncs -n 400 -sparsity 0.94   # a random sparse network
//	autoncs -testbench 2 -baseline  # also run and compare against FullCro
//
// With -server URL the compile runs on an autoncsd instance instead of in
// process: the network is built (or loaded) locally, shipped as text, and
// the daemon's content-addressed cache answers repeated compiles instantly.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"sort"
	"text/tabwriter"
	"time"

	"repro"
	"repro/client"
	"repro/internal/parallel"
)

func main() {
	var (
		tbID     = flag.Int("testbench", 0, "paper testbench id (1-3); 0 uses -n/-sparsity")
		n        = flag.Int("n", 400, "neurons in the random network")
		sparsity = flag.Float64("sparsity", 0.94, "sparsity of the random network")
		seed     = flag.Int64("seed", 1, "random seed")
		baseline = flag.Bool("baseline", false, "also run the FullCro baseline and compare")
		skipPhys = flag.Bool("cluster-only", false, "stop after clustering (no physical design)")
		quantile = flag.Float64("quantile", 0, "ISC partial-selection quantile (0 = paper's 0.75)")
		multilvl = flag.Bool("multilevel", false, "cluster large iterations with the multilevel engine (see docs/clustering.md)")
		mlCutoff = flag.Int("ml-cutoff", 0, "with -multilevel: active-neuron count at or below which iterations use the flat engine (0 = default 1024)")
		loadPath = flag.String("load", "", "load the network from a file (autoncs-net format)")
		savePath = flag.String("save", "", "save the generated network to a file before compiling")
		dumpPath = flag.String("dump", "", "write the resulting hybrid assignment as JSON")
		workers  = flag.Int("workers", 0, "worker pool size for the parallel kernels (0 = NumCPU; results are identical for any value)")
		server   = flag.String("server", "", "compile on this autoncsd instance (e.g. http://127.0.0.1:8080) instead of in process")
		priority = flag.String("priority", "", "with -server: job priority, interactive or batch (empty = server default)")
		baseKey  = flag.String("base", "", "with -server: recompile incrementally against this previous result key (the cache key a prior run printed)")
		verbose  = flag.Bool("v", false, "log stage boundaries and ISC iterations to stderr")
		trace    = flag.Bool("trace", false, "log every flow event to stderr, including per-checkpoint placement progress and route batches (implies -v)")
	)
	flag.Parse()
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "invalid -workers %d (want ≥ 0)\n", *workers)
		os.Exit(2)
	}
	parallel.SetDefault(*workers)

	// Ctrl-C cancels the flow cooperatively: the compile returns a wrapped
	// context error from whichever stage it was in.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var net *autoncs.Network
	switch {
	case *loadPath != "":
		var err error
		net, err = autoncs.LoadNetwork(*loadPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "load:", err)
			os.Exit(1)
		}
		fmt.Printf("Loaded network from %s\n", *loadPath)
	case *tbID >= 1 && *tbID <= 3:
		tb := autoncs.Testbenches()[*tbID-1]
		fmt.Printf("Testbench %d: M=%d patterns, N=%d neurons, target sparsity %.2f%%\n",
			tb.ID, tb.M, tb.N, 100*tb.Sparsity)
		net = autoncs.BuildTestbench(tb, *seed)
	case *tbID == 0:
		fmt.Printf("Random network: N=%d, sparsity %.2f%%\n", *n, 100**sparsity)
		net = autoncs.RandomSparseNetwork(*n, *sparsity, *seed)
	default:
		fmt.Fprintf(os.Stderr, "invalid -testbench %d (want 0-3)\n", *tbID)
		os.Exit(2)
	}
	fmt.Printf("Network: %d neurons, %d connections, sparsity %.2f%%\n\n",
		net.N(), net.NNZ(), 100*net.Sparsity())
	if *savePath != "" {
		if err := net.Save(*savePath); err != nil {
			fmt.Fprintln(os.Stderr, "save:", err)
			os.Exit(1)
		}
		fmt.Printf("Saved network to %s\n\n", *savePath)
	}

	if *server != "" {
		if *baseKey != "" && *baseline {
			fmt.Fprintln(os.Stderr, "-base cannot combine with -baseline (the FullCro flow has no incremental form)")
			os.Exit(2)
		}
		req := client.CompileRequest{
			Seed:              *seed,
			SelectionQuantile: *quantile,
			SkipPhysical:      *skipPhys,
			Multilevel:        *multilvl,
			MultilevelCutoff:  *mlCutoff,
			Priority:          *priority,
			Base:              *baseKey,
		}
		runRemote(ctx, *server, net, req, *baseline, *dumpPath)
		return
	}
	if *baseKey != "" {
		fmt.Fprintln(os.Stderr, "-base requires -server (incremental recompiles are served from the daemon's artifact cache)")
		os.Exit(2)
	}

	cfg := autoncs.DefaultConfig()
	cfg.Seed = *seed
	cfg.SkipPhysical = *skipPhys
	cfg.SelectionQuantile = *quantile
	cfg.Multilevel = *multilvl
	cfg.MultilevelCutoff = *mlCutoff
	cfg.Workers = *workers
	cfg.Observer = stderrObserver(*verbose, *trace)

	res, err := autoncs.CompileCtx(ctx, net, cfg)
	if err != nil {
		exitErr(err) // package errors carry their own "autoncs:" prefix
	}
	printResult("AutoNCS", res, *verbose || *trace)
	if *dumpPath != "" {
		if err := res.Assignment.SaveJSON(*dumpPath); err != nil {
			fmt.Fprintln(os.Stderr, "dump:", err)
			os.Exit(1)
		}
		fmt.Printf("Assignment written to %s\n\n", *dumpPath)
	}

	if *baseline {
		full, err := autoncs.CompileFullCroCtx(ctx, net, cfg)
		if err != nil {
			exitErr(fmt.Errorf("fullcro: %w", err))
		}
		printResult("FullCro", full, *verbose || *trace)
		if !*skipPhys {
			cmp, err := autoncs.Compare(res, full)
			if err != nil {
				fmt.Fprintln(os.Stderr, "compare:", err)
				os.Exit(1)
			}
			fmt.Printf("Reductions vs FullCro: wirelength %.2f%%, area %.2f%%, delay %.2f%%, cost %.2f%%\n",
				cmp.WirelengthReduction, cmp.AreaReduction, cmp.DelayReduction, cmp.CostReduction)
		}
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

// exitErr prints err and exits — with the conventional 130 after Ctrl-C.
func exitErr(err error) {
	fmt.Fprintln(os.Stderr, err)
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "interrupted")
		os.Exit(130)
	}
	os.Exit(1)
}

// printResult writes the deterministic result summary to stdout; the
// per-stage wall times (non-deterministic) are included only when the user
// asked for diagnostics, so default output stays byte-comparable across
// runs and worker counts.
func printResult(name string, res *autoncs.Result, showTimes bool) {
	a := res.Assignment
	fmt.Printf("== %s ==\n", name)
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "crossbars\t%d\n", len(a.Crossbars))
	fmt.Fprintf(w, "discrete synapses\t%d\n", len(a.Synapses))
	fmt.Fprintf(w, "outlier ratio\t%.2f%%\n", 100*a.OutlierRatio())
	fmt.Fprintf(w, "avg crossbar utilization\t%.4f\n", a.AvgUtilization())
	fmt.Fprintf(w, "avg crossbar preference\t%.2f\n", a.AvgPreference())
	if len(res.Trace) > 0 {
		fmt.Fprintf(w, "ISC iterations\t%d\n", len(res.Trace))
	}
	if res.Report != nil {
		fmt.Fprintf(w, "total wirelength\t%.1f µm\n", res.Report.Wirelength)
		fmt.Fprintf(w, "placement area\t%.2f µm²\n", res.Report.Area)
		fmt.Fprintf(w, "avg wire delay\t%.3f ns\n", res.Report.AvgDelay)
		fmt.Fprintf(w, "cost (αL+βA+δT)\t%.1f\n", res.Report.Cost)
	}
	if showTimes {
		for _, s := range autoncs.Stages() {
			if d, ok := res.StageTimes[s]; ok {
				fmt.Fprintf(w, "%s time\t%v\n", s, d.Round(time.Microsecond))
			}
		}
	}
	w.Flush()
	if h := a.SizeHistogram(); len(h) > 0 {
		fmt.Print("crossbar sizes: ")
		for _, s := range sizesOf(h) {
			fmt.Printf("%d×%d:%d  ", s, s, h[s])
		}
		fmt.Println()
	}
	fmt.Println()
}

// runRemote ships the locally built network to an autoncsd instance and
// renders the returned result in the same shape as the local summary. req
// carries the caller's flow knobs (multilevel, router selection, …); the
// daemon caches by content address, so rerunning the same command answers
// from the cache (reported in the summary).
func runRemote(ctx context.Context, url string, net *autoncs.Network, req client.CompileRequest, baseline bool, dumpPath string) {
	var buf bytes.Buffer
	if err := net.Write(&buf); err != nil {
		fmt.Fprintln(os.Stderr, "remote: encoding network:", err)
		os.Exit(1)
	}
	req.Net = buf.String()
	c := client.New(url)

	auto := remoteCompile(ctx, c, req, "AutoNCS")
	if dumpPath != "" {
		if err := os.WriteFile(dumpPath, auto.Assignment, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "dump:", err)
			os.Exit(1)
		}
		fmt.Printf("Assignment written to %s\n\n", dumpPath)
	}
	if !baseline {
		return
	}
	req.FullCro = true
	full := remoteCompile(ctx, c, req, "FullCro")
	if auto.Report != nil && full.Report != nil {
		red := func(a, f float64) float64 {
			if f == 0 {
				return 0
			}
			return 100 * (f - a) / f
		}
		fmt.Printf("Reductions vs FullCro: wirelength %.2f%%, area %.2f%%, delay %.2f%%, cost %.2f%%\n",
			red(auto.Report.Wirelength, full.Report.Wirelength),
			red(auto.Report.Area, full.Report.Area),
			red(auto.Report.AvgDelay, full.Report.AvgDelay),
			red(auto.Report.Cost, full.Report.Cost))
	}
}

// remoteCompile submits one request, waits for it, and prints the summary;
// any failure exits.
func remoteCompile(ctx context.Context, c *client.Client, req client.CompileRequest, name string) *client.Result {
	st, err := c.CompileWait(ctx, req)
	if err != nil {
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.IsRetryable() {
			fmt.Fprintf(os.Stderr, "remote: %v (retry in %v)\n", err, apiErr.RetryAfter)
			os.Exit(1)
		}
		exitErr(fmt.Errorf("remote: %w", err))
	}
	if st.State != client.StateDone {
		fmt.Fprintf(os.Stderr, "remote: job %s ended %s: %s\n", st.ID, st.State, st.Error)
		os.Exit(1)
	}
	var res client.Result
	if err := json.Unmarshal(st.Result, &res); err != nil {
		fmt.Fprintln(os.Stderr, "remote: decoding result:", err)
		os.Exit(1)
	}
	printRemoteResult(name, st, &res)
	return &res
}

// printRemoteResult mirrors printResult for the wire representation, plus
// the serving-side facts (cache hit, key, server elapsed time).
func printRemoteResult(name string, st *client.JobStatus, res *client.Result) {
	fmt.Printf("== %s (remote) ==\n", name)
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	switch {
	case st.Cached:
		fmt.Fprintf(w, "served from cache\tyes\n")
	case st.Coalesced:
		fmt.Fprintf(w, "coalesced onto in-flight compile\tyes\n")
	default:
		fmt.Fprintf(w, "server compile time\t%.2fs\n", st.ElapsedSeconds)
	}
	fmt.Fprintf(w, "cache key\t%s\n", st.Key)
	if st.BaseKey != "" {
		fmt.Fprintf(w, "delta base\t%s\n", st.BaseKey)
	}
	fmt.Fprintf(w, "crossbars\t%d\n", res.Crossbars)
	fmt.Fprintf(w, "discrete synapses\t%d\n", res.Synapses)
	fmt.Fprintf(w, "outlier ratio\t%.2f%%\n", 100*res.OutlierRatio)
	fmt.Fprintf(w, "avg crossbar utilization\t%.4f\n", res.AvgUtilization)
	fmt.Fprintf(w, "avg crossbar preference\t%.2f\n", res.AvgPreference)
	if res.ISCIterations > 0 {
		fmt.Fprintf(w, "ISC iterations\t%d\n", res.ISCIterations)
	}
	if res.Report != nil {
		fmt.Fprintf(w, "total wirelength\t%.1f µm\n", res.Report.Wirelength)
		fmt.Fprintf(w, "placement area\t%.2f µm²\n", res.Report.Area)
		fmt.Fprintf(w, "avg wire delay\t%.3f ns\n", res.Report.AvgDelay)
		fmt.Fprintf(w, "cost (αL+βA+δT)\t%.1f\n", res.Report.Cost)
	}
	w.Flush()
	if len(res.SizeHistogram) > 0 {
		keys := make([]string, 0, len(res.SizeHistogram))
		for k := range res.SizeHistogram {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			return len(keys[i]) < len(keys[j]) || (len(keys[i]) == len(keys[j]) && keys[i] < keys[j])
		})
		fmt.Print("crossbar sizes: ")
		for _, k := range keys {
			fmt.Printf("%s×%s:%d  ", k, k, res.SizeHistogram[k])
		}
		fmt.Println()
	}
	fmt.Println()
}

func sizesOf(h map[int]int) []int {
	out := make([]int, 0, len(h))
	for s := range h {
		out = append(out, s)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
