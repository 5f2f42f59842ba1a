package main

import (
	"context"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	autoncs "repro"
)

// deltaStage measures the incremental-recompile path end to end, in the
// interactive-editing regime it exists for: a full multilevel compile of a
// paper-scale network, a localized 1% edge edit, then the edited network
// recompiled through CompileDelta against the base result. The full base
// compile is both the timing reference (without the delta path, the edit
// costs another compile of the same shape) and the quality reference (the
// documented contract is that a delta tracks the quality of its base, not
// of a hypothetical from-scratch recompile). The stage reports the
// wall-time ratio, the base compile's time per pipeline stage, and the
// reuse fractions of every pipeline layer
// (clustering, placement, routing), and fails unless the delta is ≥10x
// faster at comparable quality — the speedup claim is gated, not assumed.
func deltaStage(ctx context.Context, quick bool, seed int64, workers int, ob autoncs.Observer, rec *reporter) error {
	n, sparsity := 2000, 0.985
	if quick {
		n, sparsity = 600, 0.97
	}
	const editFrac = 0.01
	header(fmt.Sprintf("delta — incremental recompile after a localized %.0f%% edge edit (%d neurons)", 100*editFrac, n))

	net := autoncs.RandomSparseNetwork(n, sparsity, seed)
	cfg := autoncs.DefaultConfig()
	cfg.Seed = seed
	cfg.Workers = workers
	cfg.Multilevel = true
	cfg.UtilizationThreshold = 0.04
	cfg.Observer = ob

	start := time.Now()
	base, err := autoncs.CompileCtx(ctx, net, cfg)
	if err != nil {
		return err
	}
	baseWall := time.Since(start)

	edited := net.Clone()
	removed, added := localizedEdit(edited, editFrac)

	start = time.Now()
	dres, stats, err := autoncs.CompileDeltaCtx(ctx, base, edited, cfg)
	if err != nil {
		return err
	}
	deltaWall := time.Since(start)

	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "compile\twall time\tcrossbars\tsynapses\toutliers\twirelength (µm)")
	row := func(name string, wall time.Duration, r *autoncs.Result) {
		fmt.Fprintf(w, "%s\t%v\t%d\t%d\t%.2f%%\t%.1f\n",
			name, wall.Round(time.Millisecond),
			len(r.Assignment.Crossbars), len(r.Assignment.Synapses),
			100*r.Assignment.OutlierRatio(), r.Report.Wirelength)
	}
	row("full (base)", baseWall, base)
	row("delta (edited)", deltaWall, dres)
	w.Flush()
	fmt.Printf("edit: %d removed + %d added of %d base connections (ratio %.4f), %d neurons touched\n",
		removed, added, net.NNZ(), stats.EditRatio, stats.TouchedNeurons)
	fmt.Printf("reuse: clusters %.1f%% (%d/%d crossbars kept, %d residual conns), placement %.1f%% (%d/%d cells seeded), routing %.1f%% (%d/%d wires kept)\n",
		100*stats.ClusterReuseFrac, stats.KeptCrossbars, stats.BaseCrossbars, stats.ResidualConns,
		100*stats.PlaceReuseFrac, stats.SeededCells, stats.Cells,
		100*stats.RouteReuseFrac, stats.ReusedWires, stats.Wires)
	fmt.Print("full (base) stages:")
	for _, s := range autoncs.Stages() {
		fmt.Printf(" %s %v", s, base.StageTimes[s].Round(time.Millisecond))
		rec.metric("base_"+string(s)+"_seconds", base.StageTimes[s].Seconds())
	}
	fmt.Println()
	speedup := float64(baseWall) / float64(deltaWall)
	fmt.Printf("delta speedup: %.1fx over a full recompile\n", speedup)

	rec.stageTimes(dres.StageTimes)
	rec.metric("full_seconds", baseWall.Seconds())
	rec.metric("delta_seconds", deltaWall.Seconds())
	rec.metric("delta_speedup", speedup)
	rec.metric("edits", float64(stats.Edits))
	rec.metric("edit_ratio", stats.EditRatio)
	rec.metric("touched_neurons", float64(stats.TouchedNeurons))
	rec.metric("cluster_reuse_frac", stats.ClusterReuseFrac)
	rec.metric("place_reuse_frac", stats.PlaceReuseFrac)
	rec.metric("route_reuse_frac", stats.RouteReuseFrac)
	rec.metric("kept_crossbars", float64(stats.KeptCrossbars))
	rec.metric("residual_conns", float64(stats.ResidualConns))
	rec.metric("rerouted_wires", float64(stats.ReroutedWires))
	rec.metric("base_outlier_ratio", base.Assignment.OutlierRatio())
	rec.metric("delta_outlier_ratio", dres.Assignment.OutlierRatio())
	rec.metric("base_wirelength_um", base.Report.Wirelength)
	rec.metric("delta_wirelength_um", dres.Report.Wirelength)

	// The gates: the speedup claim only counts at comparable quality.
	const (
		minSpeedup   = 10.0
		outlierSlack = 0.02 // absolute outlier-ratio headroom over the base
		costSlack    = 1.25 // wirelength headroom over the base
	)
	if speedup < minSpeedup {
		return fmt.Errorf("delta speedup %.1fx below the %.0fx gate (full %v, delta %v)",
			speedup, minSpeedup, baseWall.Round(time.Millisecond), deltaWall.Round(time.Millisecond))
	}
	if do, bo := dres.Assignment.OutlierRatio(), base.Assignment.OutlierRatio(); do > bo+outlierSlack {
		return fmt.Errorf("delta outlier ratio %.4f exceeds base %.4f + %.2f slack", do, bo, outlierSlack)
	}
	if dc, bc := len(dres.Assignment.Crossbars), len(base.Assignment.Crossbars); dc > bc+2 && float64(dc) > 1.05*float64(bc) {
		return fmt.Errorf("delta uses %d crossbars, base %d", dc, bc)
	}
	if bw := base.Report.Wirelength; bw > 0 && dres.Report.Wirelength > costSlack*bw {
		return fmt.Errorf("delta wirelength %.1f µm exceeds %.2fx the base's %.1f µm",
			dres.Report.Wirelength, costSlack, bw)
	}
	fmt.Printf("quality gates passed (speedup ≥ %.0fx, outliers within %.2f, crossbars within 5%%, wirelength within %.2fx of the base)\n",
		minSpeedup, outlierSlack, costSlack)
	return nil
}

// localizedEdit applies the editing shape the delta path is built for:
// contiguous neuron windows are rewired in place — existing connections
// removed from one window, absent ones added in a disjoint window (so the
// adds cannot cancel the removals) — together editFrac of the network's
// connections. Deterministic scan order keeps the stage reproducible.
func localizedEdit(net *autoncs.Network, editFrac float64) (removed, added int) {
	n := net.N()
	target := int(editFrac * float64(net.NNZ()))
	if target < 4 {
		target = 4
	}
	span := n / 8
	removeTarget := target / 2
	addTarget := target - removeTarget
	lo := n / 10
	for i := lo; i < lo+span && removed < removeTarget; i++ {
		for j := lo; j < lo+span && removed < removeTarget; j++ {
			if i != j && net.Has(i, j) {
				net.Clear(i, j)
				removed++
			}
		}
	}
	lo = n / 2
	for i := lo; i < lo+span && added < addTarget; i++ {
		for j := lo; j < lo+span && added < addTarget; j++ {
			if i != j && !net.Has(i, j) {
				net.Set(i, j)
				added++
			}
		}
	}
	return removed, added
}
