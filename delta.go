package autoncs

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/place"
	"repro/internal/route"
)

// EditSet is a typed structural diff between two networks of the same
// neuron count — the input to a delta recompile.
type EditSet = graph.EditSet

// DeltaStats summarizes how much of the previous compile a delta recompile
// reused, per stage.
type DeltaStats = obs.DeltaStats

// DiffNetworks returns the typed edit set turning base into edited. Both
// networks must have the same neuron count.
func DiffNetworks(base, edited *Network) (*EditSet, error) {
	return graph.DiffConn(base, edited)
}

// BaseNetwork reconstructs the network an assignment exactly covers: the
// union of every crossbar connection and every discrete synapse. A delta
// recompile diffs the edited network against this reconstruction, so a
// caller holding only the assignment (e.g. a restored artifact) can size
// an edit without the original network.
func BaseNetwork(a *Assignment) *Network {
	base := graph.NewConn(a.N)
	for _, cb := range a.Crossbars {
		for _, e := range cb.Conns {
			base.Set(e.From, e.To)
		}
	}
	for _, e := range a.Synapses {
		base.Set(e.From, e.To)
	}
	return base
}

// CompileDelta recompiles an edited network by reusing the untouched
// regions of a previous compile of a nearby network. It is CompileDeltaCtx
// under context.Background().
func CompileDelta(prev *Result, net *Network, cfg Config) (*Result, DeltaStats, error) {
	return CompileDeltaCtx(context.Background(), prev, net, cfg)
}

// CompileDeltaCtx is the incremental counterpart of CompileCtx: given the
// Result of a previous compile and an edited network, it recompiles only
// the impact region of the edit and splices the previous answer back in
// everywhere else.
//
// The impact region is derived structurally. The previous network is
// reconstructed from prev.Assignment (which exactly covers it) and diffed
// against net, and the edit set is applied to the assignment itself: a
// removed connection shrinks the crossbar (or drops the synapse) that
// realized it, and an added connection is absorbed into a surviving
// crossbar whose block covers it. Only crossbars the edits emptied or
// dragged below half the clustering threshold dissolve; their surviving
// connections plus the unabsorbable additions form the residual, which is
// re-clustered through ISC (or emitted as synapses when too small to be
// worth a crossbar). The merged assignment then flows through warm-started
// physical design: every surviving cell keeps its exact coordinates (new
// cells are legalized into the gaps), and routed paths whose endpoints
// didn't move are committed as-is, with only the dirty wires negotiated
// from scratch.
//
// Requirements: prev must carry an assignment, cfg.Device must equal
// prev.Device (like Redesign), and net must have prev.Assignment.N neurons.
// A structurally distant edit degrades gracefully — dissolving more and
// reusing less — but the result of a delta is NOT bit-identical to a full
// compile of net: it tracks the quality of the base it was edited from
// (see docs/incremental.md). The zero-edit delta reproduces prev exactly.
// Like CompileCtx, a delta is deterministic: the same (prev, net, cfg)
// yields a bit-identical Result for every worker count.
func CompileDeltaCtx(ctx context.Context, prev *Result, net *Network, cfg Config) (*Result, DeltaStats, error) {
	var stats DeltaStats
	if err := validateInput(net, cfg); err != nil {
		return nil, stats, err
	}
	if prev == nil || prev.Assignment == nil {
		return nil, stats, fmt.Errorf("autoncs: delta compile requires a previous result carrying an assignment")
	}
	if cfg.Device != prev.Device {
		return nil, stats, fmt.Errorf("autoncs: delta compile device model differs from the %v the previous result was built with", prev.Device)
	}
	if prev.Assignment.N != net.N() {
		return nil, stats, fmt.Errorf("autoncs: delta compile: previous result has %d neurons, edited network %d (resizing edits need a full compile)",
			prev.Assignment.N, net.N())
	}

	ob := cfg.Observer
	start := time.Now()
	obs.Emit(ob, obs.CompileStart{Neurons: net.N(), Connections: net.NNZ(), Workers: cfg.Workers})
	res := &Result{Device: cfg.Device, StageTimes: make(map[Stage]time.Duration)}

	var d *deltaPlan
	err := res.runStage(ob, StageClustering, func() error {
		var err error
		d, err = planDelta(ctx, prev, net, cfg, &stats)
		if err != nil {
			return err
		}
		res.Assignment, res.Trace = d.merged, d.trace
		return nil
	})
	if err == nil && !cfg.SkipPhysical {
		if prev.Placement == nil || prev.Routing == nil {
			// The base compile skipped physical design: nothing to warm-start
			// from, so the physical stages run from scratch.
			stats.FullRoute = true
			err = res.physicalDesign(ctx, cfg)
			if err == nil {
				stats.Cells = len(res.Netlist.Cells)
				stats.Wires = len(res.Netlist.Wires)
				stats.ReroutedWires = len(res.Netlist.Wires)
			}
		} else {
			err = res.physicalDelta(ctx, prev, cfg, d, &stats)
		}
	}
	if err == nil {
		obs.Emit(ob, stats)
	}
	obs.Emit(ob, obs.CompileEnd{Elapsed: time.Since(start), Err: err})
	if err != nil {
		return nil, stats, err
	}
	return res, stats, nil
}

// deltaPlan carries the clustering-stage delta decisions forward into the
// physical stages: which merged crossbars are previous crossbars, and which.
type deltaPlan struct {
	merged   *Assignment
	trace    []Iteration
	keptPrev []int // keptPrev[i] = prev crossbar index of merged crossbar i, for i < len(keptPrev)
}

// planDelta reconstructs the base network from prev's assignment, diffs it
// against net, dissolves the crossbars inside the impact region, re-runs
// ISC on the residual connections only, and merges the kept and new pieces
// into an assignment of net.
func planDelta(ctx context.Context, prev *Result, net *Network, cfg Config, stats *DeltaStats) (*deltaPlan, error) {
	n := net.N()
	pa := prev.Assignment

	base := BaseNetwork(pa)

	es, err := graph.DiffConn(base, net)
	if err != nil {
		return nil, fmt.Errorf("autoncs: delta diff: %w", err)
	}
	stats.Edits = es.Edits()
	stats.AddedEdges = len(es.Added)
	stats.RemovedEdges = len(es.Removed)
	stats.EditRatio = es.Ratio(base.NNZ())
	stats.TouchedNeurons = len(es.TouchedNeurons())

	// Edit the previous assignment in place rather than dissolving every
	// crossbar near the edit. A removed connection shrinks the crossbar
	// (or drops the synapse) that realized it; an added connection is
	// absorbed into the first surviving crossbar whose Inputs×Outputs
	// block covers it — any in-block connection is realizable by
	// construction. Only a crossbar the edits emptied or dragged below
	// half the clustering threshold dissolves into the residual for
	// re-clustering; everything else survives verbatim, which is what
	// makes the impact region of a small edit small. (Re-clustering the
	// whole neighborhood instead loses badly: ISC re-finds the dissolved
	// clusters far worse from the scattered residual than it originally
	// did from the full network.)
	removedFrom := make(map[int]map[Edge]bool) // prev crossbar index -> its removed conns
	removedSyn := make(map[Edge]bool)
	prevSyn := make(map[Edge]bool, len(pa.Synapses))
	for _, e := range pa.Synapses {
		prevSyn[e] = true
	}
	edgeXbar := make(map[Edge]int)
	for xi, cb := range pa.Crossbars {
		for _, e := range cb.Conns {
			edgeXbar[e] = xi
		}
	}
	for _, e := range es.Removed {
		if xi, ok := edgeXbar[e]; ok {
			if removedFrom[xi] == nil {
				removedFrom[xi] = make(map[Edge]bool)
			}
			removedFrom[xi][e] = true
		} else if prevSyn[e] {
			removedSyn[e] = true
		} else {
			return nil, fmt.Errorf("autoncs: delta: removed edge %v not realized by the previous assignment", e)
		}
	}

	// The dissolution cutoff: half the utilization threshold the edited
	// network's own clustering would run under.
	unhealthy := resolveThreshold(net, cfg) / 2
	var kept []Crossbar // value copies; Conns cloned before any mutation
	var keptPrev []int
	var residual []Edge
	for xi, cb := range pa.Crossbars {
		rem := removedFrom[xi]
		if len(rem) == 0 {
			kept = append(kept, cb)
			keptPrev = append(keptPrev, xi)
			continue
		}
		conns := make([]Edge, 0, len(cb.Conns)-len(rem))
		for _, e := range cb.Conns {
			if !rem[e] {
				conns = append(conns, e)
			}
		}
		cb.Conns = conns
		if cb.Used() == 0 || cb.Utilization() < unhealthy {
			residual = append(residual, conns...)
			continue
		}
		kept = append(kept, cb)
		keptPrev = append(keptPrev, xi)
	}

	// Absorb added edges into surviving crossbars where possible. The scan
	// is by kept order, lowest first — deterministic. Appending to a
	// survivor's Conns must not scribble over the previous assignment's
	// backing array, so a crossbar's Conns are cloned on first absorption.
	inKept := make(map[int][]int)  // neuron -> kept indices with it as an input
	outKept := make(map[int][]int) // neuron -> kept indices with it as an output
	for ki := range kept {
		for _, nn := range kept[ki].Inputs {
			inKept[nn] = append(inKept[nn], ki)
		}
		for _, nn := range kept[ki].Outputs {
			outKept[nn] = append(outKept[nn], ki)
		}
	}
	absorbed := make(map[int]bool)
	for _, e := range es.Added {
		target := -1
		outs := outKept[e.To]
		for _, ki := range inKept[e.From] {
			for _, ko := range outs {
				if ki == ko {
					target = ki
					break
				}
			}
			if target >= 0 {
				break
			}
		}
		if target < 0 {
			residual = append(residual, e)
			continue
		}
		cb := &kept[target]
		if !absorbed[target] {
			cb.Conns = append(append([]Edge(nil), cb.Conns...), e)
			absorbed[target] = true
		} else {
			cb.Conns = append(cb.Conns, e)
		}
	}

	var carried []Edge
	for _, e := range pa.Synapses {
		if !removedSyn[e] {
			carried = append(carried, e)
		}
	}
	stats.BaseCrossbars = len(pa.Crossbars)
	stats.KeptCrossbars = len(kept)
	stats.DirtyCrossbars = len(pa.Crossbars) - len(kept)
	stats.ResidualConns = len(residual)
	if len(pa.Crossbars) > 0 {
		stats.ClusterReuseFrac = float64(len(kept)) / float64(len(pa.Crossbars))
	}

	merged := &Assignment{N: n, Total: net.NNZ()}
	merged.Crossbars = append(merged.Crossbars, kept...)
	var trace []Iteration
	if len(residual) >= cfg.Library.Min() {
		// Enough residual connections to be worth crossbars of their own.
		// Re-cluster them on their induced active subgraph, not the full
		// neuron space: most neurons have no residual connection, and the
		// isolated rows would both pollute the spectral clustering and
		// drag the auto utilization threshold to the full net's level.
		// Ids translate back through the active list afterwards.
		rc := graph.NewConn(n)
		for _, e := range residual {
			rc.Set(e.From, e.To)
		}
		active := rc.ActiveNeurons()
		sub := rc.Sub(active)
		iscRes, err := core.ISCCtx(ctx, sub, core.ISCOptions{
			Library:              cfg.Library,
			UtilizationThreshold: resolveThreshold(sub, cfg),
			SelectionQuantile:    cfg.SelectionQuantile,
			Rand:                 rand.New(rand.NewSource(cfg.Seed)),
			Workers:              cfg.Workers,
			Observer:             cfg.Observer,
			Multilevel:           cfg.Multilevel,
			MultilevelCutoff:     cfg.MultilevelCutoff,
			CoarsenRatio:         cfg.CoarsenRatio,
			MultilevelLevels:     cfg.MultilevelLevels,
		})
		if err != nil {
			return nil, fmt.Errorf("autoncs: delta clustering: %w", err)
		}
		for _, cb := range iscRes.Assignment.Crossbars {
			merged.Crossbars = append(merged.Crossbars, translateCrossbar(cb, active))
		}
		for _, e := range iscRes.Assignment.Synapses {
			merged.Synapses = append(merged.Synapses, Edge{From: active[e.From], To: active[e.To]})
		}
		trace = iscRes.Trace
	} else {
		// Too few residual connections for a crossbar: discrete synapses.
		merged.Synapses = append(merged.Synapses, residual...)
	}
	stats.NewCrossbars = len(merged.Crossbars) - len(keptPrev)
	merged.Synapses = append(merged.Synapses, carried...)
	// Row-major synapse order, matching what a full compile produces from
	// the remaining-connection sweep.
	sort.Slice(merged.Synapses, func(i, j int) bool {
		a, b := merged.Synapses[i], merged.Synapses[j]
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	if err := merged.Validate(net); err != nil {
		return nil, fmt.Errorf("autoncs: delta merge does not cover the edited network: %w", err)
	}
	return &deltaPlan{merged: merged, trace: trace, keptPrev: keptPrev}, nil
}

// translateCrossbar maps a crossbar clustered in residual-subgraph space
// back to global neuron ids via the active-neuron index list.
func translateCrossbar(cb Crossbar, active []int) Crossbar {
	out := Crossbar{
		Size:    cb.Size,
		Inputs:  make([]int, len(cb.Inputs)),
		Outputs: make([]int, len(cb.Outputs)),
		Conns:   make([]Edge, len(cb.Conns)),
	}
	for i, n := range cb.Inputs {
		out.Inputs[i] = active[n]
	}
	for i, n := range cb.Outputs {
		out.Outputs[i] = active[n]
	}
	for i, e := range cb.Conns {
		out.Conns[i] = Edge{From: active[e.From], To: active[e.To]}
	}
	return out
}

// physicalDelta runs netlist → place → route → cost on the merged
// assignment, warm-starting placement from the previous coordinates of
// every surviving cell and routing from the previous paths of every wire
// whose endpoints didn't move.
func (res *Result) physicalDelta(ctx context.Context, prev *Result, cfg Config, d *deltaPlan, stats *DeltaStats) error {
	ob := cfg.Observer

	prevNl := prev.Netlist
	if prevNl == nil {
		// A restored artifact always carries a netlist, but a caller may
		// hand us a stripped Result; Build is deterministic, so rebuilding
		// yields the exact netlist the previous coordinates are indexed by.
		var err error
		if prevNl, err = netlist.Build(prev.Assignment, cfg.Device); err != nil {
			return fmt.Errorf("autoncs: delta base netlist: %w", err)
		}
	}
	if len(prevNl.Cells) != len(prev.Placement.X) || len(prevNl.Wires) != len(prev.Routing.Paths) {
		return fmt.Errorf("autoncs: delta base result is inconsistent: %d cells / %d coords, %d wires / %d paths",
			len(prevNl.Cells), len(prev.Placement.X), len(prevNl.Wires), len(prev.Routing.Paths))
	}

	var nl *Netlist
	if err := res.runStage(ob, StageNetlist, func() error {
		var err error
		if nl, err = netlist.Build(res.Assignment, cfg.Device); err != nil {
			return fmt.Errorf("autoncs: netlist: %w", err)
		}
		return nil
	}); err != nil {
		return err
	}

	// Map every new cell to its previous incarnation, if it has one. Cell
	// Refs are the stable identities: the crossbar index (translated
	// through keptPrev), the global neuron id, and the synapse's edge.
	prevXbarCell := make(map[int]int)
	prevSynCell := make(map[Edge]int)
	for _, c := range prevNl.Cells {
		switch c.Kind {
		case netlist.KindCrossbar:
			prevXbarCell[c.Ref] = c.ID
		case netlist.KindSynapse:
			prevSynCell[prev.Assignment.Synapses[c.Ref]] = c.ID
		}
	}
	cellPrev := make([]int, len(nl.Cells))
	for i, c := range nl.Cells {
		cellPrev[i] = -1
		switch c.Kind {
		case netlist.KindCrossbar:
			if c.Ref < len(d.keptPrev) {
				if id, ok := prevXbarCell[d.keptPrev[c.Ref]]; ok {
					cellPrev[i] = id
				}
			}
		case netlist.KindNeuron:
			if id, ok := prevNl.NeuronCell[c.Ref]; ok {
				cellPrev[i] = id
			}
		case netlist.KindSynapse:
			// Only a carried synapse can match a previous synapse edge:
			// residual edges were never synapses before.
			if id, ok := prevSynCell[res.Assignment.Synapses[c.Ref]]; ok {
				cellPrev[i] = id
			}
		}
	}

	pw := &place.Warm{
		X:      make([]float64, len(nl.Cells)),
		Y:      make([]float64, len(nl.Cells)),
		Seeded: make([]bool, len(nl.Cells)),
		MinX:   prev.Placement.MinX, MinY: prev.Placement.MinY,
		MaxX: prev.Placement.MaxX, MaxY: prev.Placement.MaxY,
	}
	seeded := 0
	for i, p := range cellPrev {
		if p >= 0 {
			pw.Seeded[i] = true
			pw.X[i], pw.Y[i] = prev.Placement.X[p], prev.Placement.Y[p]
			seeded++
		}
	}
	stats.Cells = len(nl.Cells)
	stats.SeededCells = seeded
	if len(nl.Cells) > 0 {
		stats.PlaceReuseFrac = float64(seeded) / float64(len(nl.Cells))
	}

	var pl *Placement
	if err := res.runStage(ob, StagePlace, func() error {
		var err error
		if pl, err = place.PlaceDeltaCtx(ctx, nl, placeOptions(cfg), pw); err != nil {
			return fmt.Errorf("autoncs: delta placement: %w", err)
		}
		return nil
	}); err != nil {
		return err
	}

	// A previous path is only valid on an identical grid: same dimensions
	// AND same origin, i.e. the delta placement's bounding box must equal
	// the previous one exactly. New cells legalized inside the previous box
	// keep it unchanged (the box is a union); a spill enlarges it and
	// forces a full route.
	sameBox := pl.MinX == prev.Placement.MinX && pl.MinY == prev.Placement.MinY &&
		pl.MaxX == prev.Placement.MaxX && pl.MaxY == prev.Placement.MaxY
	stats.Wires = len(nl.Wires)
	var rt *Routing
	reused := 0
	if err := res.runStage(ob, StageRoute, func() error {
		var err error
		if !sameBox {
			stats.FullRoute = true
			rt, err = route.RouteCtx(ctx, nl, pl, routeOptions(cfg))
		} else {
			prevWire := make(map[[2]int]int, len(prevNl.Wires))
			for _, w := range prevNl.Wires {
				prevWire[[2]int{w.From, w.To}] = w.ID
			}
			rw := &route.Warm{
				Cols:          prev.Routing.Cols,
				Rows:          prev.Routing.Rows,
				Paths:         make([][]int, len(nl.Wires)),
				FinalCapacity: prev.Routing.FinalCapacity,
			}
			offered := 0
			for _, w := range nl.Wires {
				pf, pt := cellPrev[w.From], cellPrev[w.To]
				if pf < 0 || pt < 0 {
					continue
				}
				if id, ok := prevWire[[2]int{pf, pt}]; ok {
					rw.Paths[w.ID] = prev.Routing.Paths[id]
					offered++
				}
			}
			rt, reused, err = route.RouteDeltaCtx(ctx, nl, pl, routeOptions(cfg), rw)
			if err == nil && reused == 0 && offered > 0 {
				stats.FullRoute = true // the grid changed or every offered path's terminals moved
			}
		}
		if err != nil {
			return fmt.Errorf("autoncs: delta routing: %w", err)
		}
		return nil
	}); err != nil {
		return err
	}
	stats.ReusedWires = reused
	stats.ReroutedWires = len(nl.Wires) - reused
	if len(nl.Wires) > 0 {
		stats.RouteReuseFrac = float64(reused) / float64(len(nl.Wires))
	}

	var rep *CostReport
	if err := res.runStage(ob, StageCost, func() error {
		var err error
		if rep, err = cost.Evaluate(nl, pl, rt, cfg.Device, cfg.Cost); err != nil {
			return fmt.Errorf("autoncs: cost: %w", err)
		}
		return nil
	}); err != nil {
		return err
	}
	res.Netlist, res.Placement, res.Routing, res.Report = nl, pl, rt, rep
	return nil
}
