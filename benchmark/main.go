// Command benchmark is the AutoNCS benchmark: four seeded workloads driven
// through the repository's public entry points, with every output checked
// against the generated input and every timing taken as wall clock.
//
// Run one workload from the repository root (run.sh builds this package
// into .bench_build first):
//
//	bash benchmark/run.sh --workload isc --seed 1 --seconds 15 --trace 0
//
// Workloads (the first report line of every run records nproc,
// GOMAXPROCS, the compile workers and the seed; compiles keep
// Config.Workers = 0, that is NumCPU):
//
//   - isc: autoncs.CompileCtx on the paper's Hopfield testbenches tb1–tb3,
//     trained from the seed, one compile at a time — Table 1's AutoNCS
//     rows. Stresses core (ISC over the matrix eigensolves and kmeans,
//     about 85% of the traced time), then place and route; bypasses the
//     delta path and the service. Closed loop, one caller.
//   - fullcro: autoncs.CompileFullCroCtx on tb1–tb3 of the seed and of
//     three reference draws every run shares — Table 1's baseline rows.
//     Stresses route (about 65%) and place (about 30%); bypasses
//     clustering (the xbar block partition takes milliseconds), the delta
//     path and the service. Closed loop, one caller.
//   - edit: the paper's tb2 compiled once, then seeded chains of 20
//     successive localized 1% edits, each through autoncs.CompileDeltaCtx
//     against the previous result. Stresses the graph differ, residual
//     re-clustering and warm place and route, with full re-routes on about
//     15% of edits; bypasses full clustering and the service. Closed loop,
//     one caller.
//   - serve: the compile service (internal/server, default options)
//     in-process behind a loopback listener, driven through the client
//     package over at most nproc connections. nproc closed-loop sessions
//     (15 ms mean think time) re-open their 200-neuron designs (cache
//     hits, 75%) or send 4-edge ?base= delta edits; an open loop submits a
//     96-neuron batch compile every 1 s ±20%, a quarter of them twice.
//     Stresses the request codec (CompileRequest.Spec, JSON payloads), the
//     cache and artifact codec, admission, coalescing and the priority
//     queues; its compiles are small.
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end ones
// (BENCHMARK.json; what each means per workload is tabled in layers.go);
// the lines before it print the same run under the names the workload's
// own metrics go by, each percentile with its sample count, plus one row
// per design. With --trace 1 the run records spans
// around every call the benchmark makes into a layer's public function and
// reports per-layer metrics instead.
//
// Reading the spans: a traced run writes <out>/spans-<workload>-seed<n>.json
// holding {"workload","seed","spans":[...]}. Each span has an id, the id of
// its parent (absent for a root), a name (the layer call, e.g.
// "route.RouteCtx"), the serve request id it belongs to, and start and end
// in seconds since the run began. A span's self time is its duration minus
// the part its children cover; the per-layer *_s metrics are sums of self
// times, and other_s is the traced wall time that no layer span claims.
// Spans named delta.* are derived from the Result.StageTimes that
// CompileDeltaCtx returns, laid end to end inside its span.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	autoncs "repro"
)

// processStart is taken as early as the process can: set-up time counts
// from here.
var processStart = time.Now()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark run.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	out      string
	tr       *tracer
	cfg      autoncs.Config

	attempted, failed int
	metrics           map[string]metric
	lines             []string // report lines printed before the result
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "workload to run: isc, fullcro, edit or serve")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Int("seconds", 15, "how long the run measures")
		trace    = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		out      = flag.String("out", ".bench_build", "directory for span files")
	)
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: benchmark --workload isc|fullcro|edit|serve --seed n --seconds s --trace 0|1\n")
		return 2
	}
	r := newRun(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	err := w(context.Background(), r)
	if err == nil {
		err = r.complete()
	}
	if err != nil {
		for _, l := range r.lines {
			fmt.Fprintln(os.Stderr, l)
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", *workload, err)
		return 1
	}
	if r.traced {
		if err := writeSpans(filepath.Join(r.out, fmt.Sprintf("spans-%s-seed%d.json", r.workload, r.seed)), r.workload, r.seed, r.tr.snapshot()); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: writing spans: %v\n", err)
			return 1
		}
	}
	r.print(os.Stdout)
	return 0
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, *run) error{
	"isc":     runISC,
	"fullcro": runFullCro,
	"edit":    runEdit,
	"serve":   runServe,
}

func newRun(workload string, seed int64, seconds time.Duration, traced bool, out string) *run {
	r := &run{
		workload: workload, seed: seed, seconds: seconds, traced: traced, out: out,
		tr:      newTracer(traced),
		cfg:     autoncs.DefaultConfig(),
		metrics: make(map[string]metric),
	}
	r.linef("run workload=%s seed=%d seconds=%g traced=%v nproc=%d gomaxprocs=%d workers=%d (Config.Workers=0)",
		workload, seed, seconds.Seconds(), traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	return r
}

// set records a metric of the output line.
func (r *run) set(name string, value float64, unit string) { r.metrics[name] = metric{value, unit} }

// linef adds a report line.
func (r *run) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// named reports one of the workload's own metrics with the samples behind
// it.
func (r *run) named(name string, value float64, unit string, samples int) {
	r.linef("metric %s = %.6g %s (samples=%d)", name, value, unit, samples)
}

// pct reports a nearest-rank percentile of xs under name, refusing it —
// and failing the run — when too few samples lie beyond it.
func (r *run) pct(name string, xs []float64, p int, unit string) (float64, error) {
	v, err := percentile(xs, p)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	r.named(name, v, unit, len(xs))
	return v, nil
}

// check counts one attempted operation and, if err is set, one failure.
func (r *run) check(what string, err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 5 {
			fmt.Fprintf(os.Stderr, "benchmark: %s failed: %v\n", what, err)
		}
		return false
	}
	return true
}

// setQuality reports the Table 1 quality metrics of a set of designs:
// wirelength and area summed, delay averaged, congestion at its peak.
func (r *run) setQuality(res []*autoncs.Result) {
	wl, area, delay, peak := 0.0, 0.0, 0.0, 0
	for _, x := range res {
		wl += x.Report.Wirelength
		area += x.Report.Area
		delay += x.Report.AvgDelay
		peak = max(peak, x.Routing.MaxUsage())
	}
	if !r.traced {
		r.set("wirelength_um", wl, "um")
		r.set("area_um2", area, "um2")
		r.set("delay_ns", delay/float64(len(res)), "ns")
		r.set("max_bin_usage", float64(peak), "wires/bin")
	}
	r.named("wirelength_um", wl, "um", len(res))
	r.named("area_um2", area, "um2", len(res))
	r.named("delay_ns", delay/float64(len(res)), "ns", len(res))
	r.named("max_bin_usage", float64(peak), "wires/bin", len(res))
}

// setCommon reports the metrics every workload has: set-up time and peak
// resident memory.
func (r *run) setCommon(setup float64, setupSamples int) {
	rss := peakRSSMB()
	r.named("setup_s", setup, "s", setupSamples)
	r.named("peak_rss_mb", rss, "MB", 1)
	if !r.traced {
		r.set("setup_s", setup, "s")
		r.set("peak_rss_mb", rss, "MB")
	}
}

// peakRSSMB returns the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// complete fills the per-layer metrics a traced workload bypasses and
// checks that the run reports exactly the metrics BENCHMARK.json lists for
// its mode.
func (r *run) complete() error {
	want := endToEnd
	if r.traced {
		r.fillLayers()
		want = perLayer
	}
	if len(r.metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, want %d", len(r.metrics), len(want))
	}
	for _, n := range want {
		if _, ok := r.metrics[n]; !ok {
			return fmt.Errorf("metric %s not reported", n)
		}
	}
	return nil
}

// print writes the report lines and the result line.
func (r *run) print(f *os.File) {
	for _, l := range r.lines {
		fmt.Fprintln(f, l)
	}
	line, _ := json.Marshal(result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	fmt.Fprintln(f, string(line))
}
