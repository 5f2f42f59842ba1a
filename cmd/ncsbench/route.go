package main

import (
	"context"
	"fmt"
	"time"

	autoncs "repro"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/route"
)

// routeStage benchmarks the routing stage in isolation on the flow's real
// workload: the clustered (ISC) netlist of an n-neuron sparse network,
// placed once and then routed, with wall time, wirelength, peak bin
// congestion, and the negotiation's search work. Every reported counter is
// deterministic for any -workers value; only the wall time varies. The
// metrics keep their negotiated_ names so reports stay comparable with
// the route rows already in BENCH_ncsbench.json.
func routeStage(ctx context.Context, n int, seed int64, workers int, rec *reporter) error {
	header(fmt.Sprintf("route — negotiated-congestion router (%d neurons, clustered)", n))
	net := autoncs.RandomSparseNetwork(n, 0.94, seed)
	cfg := autoncs.DefaultConfig()
	cfg.Seed = seed
	cfg.Workers = workers
	cfg.SkipPhysical = true
	clustered, err := autoncs.CompileCtx(ctx, net, cfg)
	if err != nil {
		return err
	}
	nl, err := netlist.Build(clustered.Assignment, cfg.Device)
	if err != nil {
		return err
	}
	popts := place.DefaultOptions()
	popts.Workers = workers
	pl, err := place.PlaceCtx(ctx, nl, popts)
	if err != nil {
		return err
	}
	fmt.Printf("netlist: %d cells, %d wires\n", len(nl.Cells), len(nl.Wires))

	opts := route.DefaultOptions()
	opts.Workers = workers
	// The stage row times the route alone, not the clustering and
	// placement that build its input.
	rec.restartClock()
	start := time.Now()
	res, err := route.RouteCtx(ctx, nl, pl, opts)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	fmt.Printf("route: %8.3fs  wirelength %.0f µm, max bin %d, capacity %d (%d relaxations), %d expansions\n",
		wall.Seconds(), res.Total, res.MaxUsage(), res.FinalCapacity, res.Relaxations, res.Expansions)
	fmt.Printf("negotiation: %d rounds, %d rip-ups, peak %d overused edges\n",
		res.Rounds, res.RipUps, res.OverusedPeak)
	rec.metric("wires", float64(len(nl.Wires)))
	rec.metric("negotiated_seconds", wall.Seconds())
	rec.metric("negotiated_wirelength_um", res.Total)
	rec.metric("negotiated_max_usage", float64(res.MaxUsage()))
	rec.metric("negotiated_expansions", float64(res.Expansions))
	rec.metric("negotiated_rounds", float64(res.Rounds))
	rec.metric("negotiated_ripups", float64(res.RipUps))
	return nil
}
