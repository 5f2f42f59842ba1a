package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	autoncs "repro"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/xbar"
)

// fullCroDraws is how many draws of tb1–tb3 the fullcro workload compiles:
// the seed's own, and reference draws that every run shares. Route time
// varies almost 2× between draws of the same testbench, so timing one
// seeded draw would leave the seed, not the program, setting the spread.
const fullCroDraws = 4

// setupReps is how often a cheap set-up is repeated to report its median.
const setupReps = 3

func runISC(ctx context.Context, r *run) error { return runCompiles(ctx, r, false, 1) }

func runFullCro(ctx context.Context, r *run) error {
	return runCompiles(ctx, r, true, fullCroDraws)
}

// genDraws generates the design sets of a compile workload: draw 0 is
// tb1–tb3 trained from the run seed, the reference draws k > 0 are trained
// from seeds derived from the paper's, the same in every run.
func genDraws(seed int64, draws int) [][]design {
	sets := make([][]design, draws)
	for k := range sets {
		s := seed
		if k > 0 {
			s = drawSeed(paperSeed, k)
		}
		sets[k] = testbenches(s)
		for i := range sets[k] {
			sets[k][i].name = fmt.Sprintf("%s.d%d", sets[k][i].name, k)
		}
	}
	return sets
}

// runCompiles runs the isc or fullcro workload. Untraced, it compiles the
// design sets through the public entry point in passes until the run's
// time is up (at least one pass). Traced, it compiles them once through
// the layers' own functions under spans, then once more through the entry
// point, and requires the two cost reports to be bit-identical.
func runCompiles(ctx context.Context, r *run, fullcro bool, draws int) error {
	// Set-up is process start-up plus input generation, repeated so its
	// median is reported.
	startup := time.Since(processStart).Seconds()
	var sets [][]design
	var reps []float64
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		sets = genDraws(r.seed, draws)
		reps = append(reps, time.Since(t).Seconds())
	}
	setup := startup + median(reps)
	entry := autoncs.CompileCtx
	if fullcro {
		entry = autoncs.CompileFullCroCtx
	}
	if r.traced {
		return tracedCompiles(ctx, r, fullcro, sets, entry, setup)
	}

	var passes, tails, designs []float64
	var quality []*autoncs.Result
	start := time.Now()
	// Passes repeat while another one still fits in the run's time.
	for pass := 0; pass == 0 || time.Since(start)+time.Since(start)/time.Duration(pass) <= r.seconds; pass++ {
		for k, set := range sets {
			total, slowest := 0.0, 0.0
			for _, d := range set {
				t := time.Now()
				res, err := entry(ctx, d.net, r.cfg)
				dt := time.Since(t).Seconds()
				if err == nil {
					err = checkDesign(d.net, res, r.cfg)
				}
				if !r.check(d.name, err) {
					continue
				}
				total += dt
				slowest = max(slowest, dt)
				designs = append(designs, dt)
				if pass == 0 {
					r.designRow(d, res, dt)
					if k == 0 {
						quality = append(quality, res)
					}
				}
			}
			passes = append(passes, total)
			tails = append(tails, slowest)
		}
	}
	if len(quality) == 0 {
		return fmt.Errorf("no design compiled")
	}
	r.setCommon(setup, setupReps)
	r.named("compile_s", mean(passes), "s", len(passes))
	r.set("latency_ms", 1000*mean(passes), "ms")
	r.set("tail_latency_ms", 1000*mean(tails), "ms")
	r.set("cold_compile_s", mean(designs), "s")
	r.named("design_compile_s_mean", mean(designs), "s", len(designs))
	r.setQuality(quality)
	return nil
}

// designRow reports one compiled design.
func (r *run) designRow(d design, res *autoncs.Result, seconds float64) {
	r.linef("design %s neurons=%d conns=%d compile_s=%.4f crossbars=%d synapses=%d wirelength_um=%.1f area_um2=%.1f delay_ns=%.6g max_bin_usage=%d",
		d.name, d.net.N(), d.net.NNZ(), seconds, len(res.Assignment.Crossbars), len(res.Assignment.Synapses),
		res.Report.Wirelength, res.Report.Area, res.Report.AvgDelay, res.Routing.MaxUsage())
}

// statsSum is a passive observer accumulating the placement and routing
// summaries of every compile it watches: counts and times add up, the
// peaks keep their maximum.
type statsSum struct {
	mu    sync.Mutex
	place obs.PlaceStats
	route obs.RouteStats
}

func (s *statsSum) Observe(e obs.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch v := e.(type) {
	case obs.PlaceStats:
		p := &s.place
		p.Outer += v.Outer
		p.FieldSolves += v.FieldSolves
		p.VCycles += v.VCycles
		p.FieldSweeps += v.FieldSweeps
		p.SwapCandidates += v.SwapCandidates
		p.SwapsAccepted += v.SwapsAccepted
		p.FieldTime += v.FieldTime
		p.DetailTime += v.DetailTime
	case obs.RouteStats:
		q := &s.route
		q.Wires += v.Wires
		q.Rounds += v.Rounds
		q.RipUps += v.RipUps
		q.Expansions += v.Expansions
		q.OverusedPeak = max(q.OverusedPeak, v.OverusedPeak)
		q.Relaxations += v.Relaxations
		q.FinalCapacity = max(q.FinalCapacity, v.FinalCapacity)
	}
}

// compileLayered reproduces CompileCtx (or CompileFullCroCtx) call by
// call, with a span around each layer function and each layer given the
// options the entry point derives from cfg.
func compileLayered(ctx context.Context, tr *tracer, parent int64, net *autoncs.Network, cfg autoncs.Config, fullcro bool, ob obs.Observer) (*autoncs.Result, error) {
	res := &autoncs.Result{Device: cfg.Device}
	if fullcro {
		if err := tr.do("xbar.FullCro", parent, 0, func(int64) error {
			res.Assignment = xbar.FullCro(net, cfg.Library)
			return nil
		}); err != nil {
			return nil, err
		}
	} else {
		threshold := cfg.UtilizationThreshold
		switch {
		case threshold == 0:
			_ = tr.do("xbar.FullCro", parent, 0, func(int64) error {
				threshold = xbar.FullCro(net, cfg.Library).AvgUtilization()
				return nil
			})
		case threshold < 0:
			threshold = 0
		}
		if err := tr.do("core.ISCCtx", parent, 0, func(int64) error {
			isc, err := core.ISCCtx(ctx, net, core.ISCOptions{
				Library:              cfg.Library,
				UtilizationThreshold: threshold,
				SelectionQuantile:    cfg.SelectionQuantile,
				Rand:                 rand.New(rand.NewSource(cfg.Seed)),
				Workers:              cfg.Workers,
				Observer:             ob,
				Multilevel:           cfg.Multilevel,
				MultilevelCutoff:     cfg.MultilevelCutoff,
				CoarsenRatio:         cfg.CoarsenRatio,
				MultilevelLevels:     cfg.MultilevelLevels,
			})
			if err != nil {
				return err
			}
			res.Assignment, res.Trace = isc.Assignment, isc.Trace
			return nil
		}); err != nil {
			return nil, err
		}
	}
	po, ro := cfg.Place, cfg.Route
	if po.Workers == 0 {
		po.Workers = cfg.Workers
	}
	if ro.Workers == 0 {
		ro.Workers = cfg.Workers
	}
	po.Observer, ro.Observer = ob, ob
	err := tr.do("netlist.Build", parent, 0, func(int64) (err error) {
		res.Netlist, err = netlist.Build(res.Assignment, cfg.Device)
		return err
	})
	if err == nil {
		err = tr.do("place.PlaceCtx", parent, 0, func(int64) (err error) {
			res.Placement, err = place.PlaceCtx(ctx, res.Netlist, po)
			return err
		})
	}
	if err == nil {
		err = tr.do("route.RouteCtx", parent, 0, func(int64) (err error) {
			res.Routing, err = route.RouteCtx(ctx, res.Netlist, res.Placement, ro)
			return err
		})
	}
	if err == nil {
		err = tr.do("cost.Evaluate", parent, 0, func(int64) (err error) {
			res.Report, err = cost.Evaluate(res.Netlist, res.Placement, res.Routing, cfg.Device, cfg.Cost)
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// layerSpans names the spans of each compile layer's public function.
var layerSpans = []string{"core.ISCCtx", "xbar.FullCro", "netlist.Build", "place.PlaceCtx", "route.RouteCtx", "cost.Evaluate"}

// tracedCompiles is the traced form of runCompiles.
func tracedCompiles(ctx context.Context, r *run, fullcro bool, sets [][]design,
	entry func(context.Context, *autoncs.Network, autoncs.Config) (*autoncs.Result, error), setup float64) error {
	var outs []*autoncs.Result
	var flat []design
	stats := &statsSum{}
	var wall float64
	for _, set := range sets {
		for _, d := range set {
			var l *autoncs.Result
			t := time.Now()
			err := r.tr.do("compile."+d.name, 0, 0, func(id int64) (err error) {
				l, err = compileLayered(ctx, r.tr, id, d.net, r.cfg, fullcro, stats)
				return err
			})
			wall += time.Since(t).Seconds()
			if err == nil {
				err = checkDesign(d.net, l, r.cfg)
			}
			if !r.check(d.name, err) {
				continue
			}
			outs = append(outs, l)
			flat = append(flat, d)
		}
	}
	// The entry point on the same designs, untraced: its reports must be
	// bit-identical, and its wall time is the baseline the tracing
	// overhead is measured against.
	var plain float64
	for i, d := range flat {
		t := time.Now()
		ref, err := entry(ctx, d.net, r.cfg)
		plain += time.Since(t).Seconds()
		if err == nil && *ref.Report != *outs[i].Report {
			err = fmt.Errorf("layered report %+v differs from the entry point's %+v", *outs[i].Report, *ref.Report)
		}
		r.check(d.name+" bit-identity", err)
	}
	if len(outs) == 0 {
		return fmt.Errorf("no design compiled")
	}

	spans := r.tr.snapshot()
	self := selfByName(spans)
	layers := 0.0
	for _, n := range layerSpans {
		layers += self[n]
	}
	r.layer("core.isc_s", self["core.ISCCtx"])
	r.layer("xbar.fullcro_s", self["xbar.FullCro"])
	r.layer("netlist.build_s", self["netlist.Build"])
	r.layer("place.place_s", self["place.PlaceCtx"])
	r.layer("route.route_s", self["route.RouteCtx"])
	r.layer("cost.evaluate_s", self["cost.Evaluate"])
	r.layer("other_s", wall-layers)
	r.layer("trace.overhead_s", wall-plain)
	r.named("compile_s", wall/float64(len(sets)), "s", len(sets))

	var iters, xbars, syn, conns, cells, wires int
	for i, l := range outs {
		iters += len(l.Trace)
		xbars += len(l.Assignment.Crossbars)
		syn += len(l.Assignment.Synapses)
		conns += l.Assignment.Total
		cells += len(l.Netlist.Cells)
		wires += len(l.Netlist.Wires)
		r.designRow(flat[i], l, spanDur(spans, "compile."+flat[i].name))
		if tb, draw, _ := strings.Cut(flat[i].name, "."); draw == "d0" {
			r.layer(tb+".compile_s", spanDur(spans, "compile."+flat[i].name))
		}
	}
	if fullcro {
		r.layer("xbar.crossbars", float64(xbars))
	} else {
		r.layer("core.isc_iterations", float64(iters))
		r.layer("core.crossbars", float64(xbars))
		r.layer("core.synapses", float64(syn))
		r.layer("core.outlier_ratio", float64(syn)/float64(conns))
	}
	r.layer("netlist.cells", float64(cells))
	r.layer("netlist.wires", float64(wires))
	setPlaceRoute(r, stats.place, stats.route)
	r.setCommon(setup, setupReps)
	var quality []*autoncs.Result
	for i := 0; i < len(outs) && i < 3; i++ {
		quality = append(quality, outs[i])
	}
	r.setQuality(quality)
	return nil
}

// setPlaceRoute reports the placement and routing counters.
func setPlaceRoute(r *run, ps obs.PlaceStats, rs obs.RouteStats) {
	r.layer("place.field_s", ps.FieldTime.Seconds())
	r.layer("place.detail_s", ps.DetailTime.Seconds())
	r.layer("place.outer_rounds", float64(ps.Outer))
	r.layer("place.field_solves", float64(ps.FieldSolves))
	r.layer("place.vcycles", float64(ps.VCycles))
	r.layer("place.swap_candidates", float64(ps.SwapCandidates))
	r.layer("place.swaps_accepted", float64(ps.SwapsAccepted))
	r.layer("route.rounds", float64(rs.Rounds))
	r.layer("route.ripups", float64(rs.RipUps))
	r.layer("route.expansions", float64(rs.Expansions))
	r.layer("route.overused_peak", float64(rs.OverusedPeak))
	r.layer("route.relaxations", float64(rs.Relaxations))
	r.layer("route.final_capacity", float64(rs.FinalCapacity))
}

// spanDur returns the duration of the first span with the given name.
func spanDur(spans []span, name string) float64 {
	for _, s := range spans {
		if s.Name == name {
			return s.dur()
		}
	}
	return 0
}
