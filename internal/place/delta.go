package place

import (
	"context"
	"fmt"
	"math"

	"repro/internal/netlist"
	"repro/internal/obs"
)

// Warm carries the reusable coordinates of a previous placement, re-indexed
// by the new netlist's cell IDs. Seeded cells are frozen at their previous
// positions; unseeded cells (the delta compile's new or re-clustered cells)
// are the only ones the delta placer moves. The previous bounding box is
// kept so the delta placement reports a box no smaller than it — the
// routing grid of a delta compile must not shrink, or every cached path's
// bin indices would mean something else.
type Warm struct {
	// X, Y are previous cell centers, valid where Seeded is true.
	X, Y []float64
	// Seeded marks the cells frozen at (X[i], Y[i]).
	Seeded []bool
	// MinX, MinY, MaxX, MaxY is the previous placement's bounding box.
	MinX, MinY, MaxX, MaxY float64
}

// PlaceDeltaCtx places the netlist incrementally: seeded cells keep their
// exact previous coordinates, and each unseeded cell is inserted at the
// weighted centroid of its already-placed wire partners, legalized on the
// same expanding-spiral schedule as the full legalizer, and locally refined
// — the global λ loop, the field solver, and detailed-placement swaps never
// run, so the seeded region is bit-identical to the previous placement.
// Unlike the full placer the result is never normalized to the origin: the
// previous coordinate frame is the contract that lets routes be reused.
//
// The result's bounding box is the union of the previous box and the tight
// box of the new placement, so a delta that keeps its new cells inside the
// previous region reports exactly the previous box (and with it the
// previous routing grid). The delta placement runs serially — its work is
// O(new cells), far below the parallel thresholds — so Workers trivially
// cannot affect the result.
func PlaceDeltaCtx(ctx context.Context, nl *netlist.Netlist, opts Options, warm *Warm) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	n := len(nl.Cells)
	if n == 0 {
		return &Result{}, nil
	}
	if warm == nil {
		return PlaceCtx(ctx, nl, opts)
	}
	if len(warm.X) != n || len(warm.Y) != n || len(warm.Seeded) != n {
		return nil, fmt.Errorf("place: warm set covers %d/%d/%d cells, netlist has %d",
			len(warm.X), len(warm.Y), len(warm.Seeded), n)
	}
	seeded := 0
	for _, s := range warm.Seeded {
		if s {
			seeded++
		}
	}
	if seeded == 0 {
		return PlaceCtx(ctx, nl, opts)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("place: cancelled before delta placement: %w", err)
	}
	p := newProblem(nl, opts)
	p.ctx = ctx

	// Freeze the seeded cells; anchor the unseeded ones at the previous
	// region's center until their insertion pass below.
	cx := (warm.MinX + warm.MaxX) / 2
	cy := (warm.MinY + warm.MaxY) / 2
	for i := 0; i < n; i++ {
		if warm.Seeded[i] {
			p.pos[i], p.pos[p.n+i] = warm.X[i], warm.Y[i]
		} else {
			p.pos[i], p.pos[p.n+i] = cx, cy
		}
	}
	initialHPWL := p.weightedHPWL()

	// Insertion order: descending area, stable on index — the full
	// legalizer's schedule restricted to the unseeded cells.
	order := make([]int, 0, n-seeded)
	for i := 0; i < n; i++ {
		if !warm.Seeded[i] {
			order = append(order, i)
		}
	}
	p.sortByAreaDesc(order)
	placed := make([]bool, n)
	ix := p.newOverlapIndex()
	for i, s := range warm.Seeded {
		if s {
			placed[i] = true
			ix.add(i)
		}
	}
	step := p.meanStep() / 2
	for _, i := range order {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("place: cancelled inserting cell %d: %w", i, err)
		}
		// Target: weighted centroid of the cell's already-placed partners,
		// the previous region's center when it has none.
		tx, ty, tw := 0.0, 0.0, 0.0
		for _, wi := range p.incWire[p.incStart[i]:p.incStart[i+1]] {
			w := nl.Wires[wi]
			o := w.To
			if o == i {
				o = w.From
			}
			if !placed[o] {
				continue
			}
			tx += w.Weight * p.pos[o]
			ty += w.Weight * p.pos[p.n+o]
			tw += w.Weight
		}
		x, y := cx, cy
		if tw > 0 {
			x, y = tx/tw, ty/tw
		}
		if ix.overlaps(i, x, y) {
			if nx, ny, ok := ix.spiral(i, x, y, step); ok {
				x, y = nx, ny
			} else {
				x = p.pos[i] + 1200*step
			}
		}
		p.pos[i], p.pos[p.n+i] = x, y
		placed[i] = true
		ix.add(i)
	}
	p.refine(warm.Seeded, ix)
	obs.Emit(opts.Observer, obs.PlaceStats{})
	r := p.result()
	r.InitialHPWL, r.GlobalHPWL = initialHPWL, initialHPWL
	// Never shrink below the previous box: the routing grid must stay
	// compatible for path reuse.
	r.MinX = math.Min(r.MinX, warm.MinX)
	r.MinY = math.Min(r.MinY, warm.MinY)
	r.MaxX = math.Max(r.MaxX, warm.MaxX)
	r.MaxY = math.Max(r.MaxY, warm.MaxY)
	return r, nil
}
