package route

import (
	"context"
	"fmt"

	"repro/internal/netlist"
	"repro/internal/place"
)

// Warm is the reusable routing a previous compile left behind, re-indexed by
// the new netlist's wire IDs. A wire with a non-nil path is clean: its
// terminals did not move and its path may be committed as-is. A nil path
// marks a dirty wire the delta route must find a path for.
type Warm struct {
	// Cols, Rows are the grid dimensions the warm paths were routed on. A
	// delta route whose placement yields a different grid cannot reuse any
	// path and falls back to a from-scratch route.
	Cols, Rows int
	// Paths holds each clean wire's previous bin sequence (nil for dirty
	// wires), indexed by the new netlist's wire IDs. Paths are only read —
	// the delta route copies them before committing.
	Paths [][]int
	// FinalCapacity is the previous route's final (possibly relaxed)
	// capacity. The delta negotiation starts there instead of at
	// Options.Capacity: the warm load was legalized at that capacity, so
	// restarting lower would immediately rip up warm paths that the
	// previous run already proved need the headroom.
	FinalCapacity int
}

// RouteDeltaCtx routes the netlist by reusing the warm paths of every clean
// wire and negotiating only the dirty ones: warm paths commit to the usage
// maps up front, round 1 of the negotiation routes just the dirty wires
// against that load, and later rounds rip up and renegotiate any wire —
// warm or dirty — whose path crosses an overused edge, exactly like a
// from-scratch negotiation. Results are bit-identical for any Workers value
// and deterministic for a fixed (netlist, placement, warm) input.
//
// The warm set is advisory: if the grid dimensions differ or a warm path's
// endpoints no longer match the wire's terminal bins, the affected wires —
// or on a grid mismatch the whole route — degrade to from-scratch. reused
// reports how many wires kept their warm path through round 1; the
// negotiation may still rip some of them later (Result.RipUps counts that).
func RouteDeltaCtx(ctx context.Context, nl *netlist.Netlist, pl *place.Result, opts Options, warm *Warm) (res *Result, reused int, err error) {
	if err := opts.validate(); err != nil {
		return nil, 0, err
	}
	if warm == nil {
		res, err = RouteCtx(ctx, nl, pl, opts)
		return res, 0, err
	}
	if len(warm.Paths) != len(nl.Wires) {
		return nil, 0, fmt.Errorf("route: warm set covers %d wires, netlist has %d", len(warm.Paths), len(nl.Wires))
	}
	res = &Result{WireLength: make([]float64, len(nl.Wires))}
	if len(nl.Wires) == 0 {
		return emptyResult(res, opts), 0, nil
	}
	rt, err := newRouter(nl, pl, opts, res)
	if err != nil {
		return nil, 0, err
	}
	if warm.FinalCapacity > rt.opts.Capacity {
		rt.opts.Capacity = warm.FinalCapacity
	}
	if rt.g.cols != warm.Cols || rt.g.rows != warm.Rows {
		// The placement stretched or shrank the grid: every warm bin index
		// means something else now. Route from scratch.
		res, err = RouteCtx(ctx, nl, pl, opts)
		return res, 0, err
	}
	// Commit the clean wires' warm paths. Copies, never aliases: the
	// negotiation reuses res.Paths[wi][:0] as search scratch, which must not
	// scribble over the caller's warm set.
	for wi, path := range warm.Paths {
		if path == nil {
			continue
		}
		if rt.src[wi] == rt.dst[wi] {
			if len(path) != 1 || path[0] != rt.src[wi] {
				continue // terminals moved into one bin; reroute
			}
			rt.commitSameBin(wi)
			reused++
			continue
		}
		if len(path) < 2 || path[0] != rt.src[wi] || path[len(path)-1] != rt.dst[wi] {
			continue // terminals moved; reroute this wire
		}
		res.Paths[wi] = append(res.Paths[wi][:0], path...)
		rt.g.commit(res.Paths[wi])
		res.WireLength[wi] = PathLength(rt.pl, rt.nl.Wires[wi], path, opts.Theta)
		reused++
	}
	// Round 1 routes the dirty wires in paper order; the warm load is
	// already on the usage maps, so the new wires negotiate around it.
	dirty := make([]int, 0, len(nl.Wires)-reused)
	for _, wi := range rt.order {
		if len(res.Paths[wi]) == 0 {
			dirty = append(dirty, wi)
		}
	}
	if err := rt.negotiate(ctx, dirty); err != nil {
		return nil, 0, err
	}
	rt.finalize()
	return res, reused, nil
}
