// Negotiated-congestion routing (PathFinder): every edge stays usable at a
// price. An edge's cost is
//
//	θ·(1 + presentFactor·round·max(0, u+1−capacity)) + history
//
// where u is the edge's current usage: the present term prices stepping
// onto an edge that would end up over capacity (escalating with the round
// number), and the history term accumulates historyGain·θ·overuse after
// every round an edge finishes over capacity — so chronically contested
// edges become expensive even when momentarily free, and wires negotiate
// who detours. Sub-capacity usage is free: an edge with headroom costs
// exactly θ (+ any history), so the θ·Manhattan heuristic stays tight —
// pricing all usage inflates g-costs everywhere, degrades A* toward a
// breadth-first ball, and was measured at >10× the expansions for no
// quality gain. Rounds rip up just enough wires to bring every edge back
// to capacity (partial rip-up, reverse wire order) and reroute them until
// no edge is overused; if that has not converged after negotiationRounds
// rounds, one final relaxation raises the capacity to the peak edge demand
// of the routing in hand, so every route completes.
//
// Searches are bidirectional A* (meet in the middle) under the balanced
// potential pot(v) = θ·(Manhattan(v,t) − Manhattan(v,s))/2: one
// epoch-stamped searchState expands from the source keyed on g + pot and
// a second from the target keyed on g − pot, always popping the side with
// the cheaper key. Every relaxation checks whether the other side already
// settled the node and tracks the best meeting total µ; the search stops
// as soon as the two top-of-heap keys sum to µ. The potential changes by
// at most θ per step and every edge costs at least θ, so both keys are
// consistent and the search is exact: it returns a cheapest path. Giving
// each side the full Manhattan bound instead (and stopping when either
// side's key reaches µ) is also exact, but both sides then expand the
// whole region cheaper than µ, about twice the pops. Both sides stay
// inside the wire's window (see windowMargin), so the frontier tracks the
// wire's length rather than the grid's area. The committed path is the
// forward chain to the meeting node joined to the backward chain from it.
//
// Parallelism is batch-speculative: a batch's searches run concurrently
// against the usage snapshot at batch start, then commit sequentially in
// wire order. Negotiated searches never fail and never need a retry —
// every found path commits — so the batch decomposition, and with it the
// entire result, is a pure function of the wire order, bit-identical for
// any Workers value.

package route

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// negotiator prices the grid's edges for one negotiated route: the shared
// history arrays (indexed like hUsage/vUsage) plus the current capacity and
// the round number the present term escalates with.
type negotiator struct {
	g            *grid
	capacity     int
	round        int // 1-based; scales the present price of overuse
	histH, histV []float64
}

// batchSize is how many wires route speculatively against one usage
// snapshot before their paths commit in order: it balances maze-search
// parallelism against the fidelity of the usage picture each wire sees.
// presentFactor scales the present price of an overused edge per unit of
// overuse, multiplied by the round number so the pressure escalates.
// historyGain scales the history cost an edge accrues per unit of overuse
// after each round, in units of θ. negotiationRounds bounds the
// rip-up-and-reroute rounds before the final relaxation.
//
// presentCap and historyCap bound the present and history price of one
// edge, in multiples of θ. An uncapped price turns every forced hotspot
// crossing into a grid-wide proof that no cheaper detour exists — the
// search must expand everything cheaper than the crossing before conceding.
// Capped, a wire tolerates detours only up to ~(presentCap+historyCap)·θ
// and then crosses anyway; the residual overuse is resolved by capacity
// escalation, not by ever-steeper prices.
const (
	batchSize         = 16
	presentFactor     = 0.5
	historyGain       = 0.4
	negotiationRounds = 48
	presentCap        = 10.0
	historyCap        = 6.0
)

// windowMargin is how many bins a search may stray outside the bounding box
// of its wire's terminal bins, on every side (clipped to the grid). It
// follows from the price caps: leaving the box by d bins lengthens a path
// by at least 2d·θ, while the priciest edge costs at most
// (presentCap+historyCap)·θ more than a free one, so a detour wider than
// the margin can never pay for itself against a single priced edge. The
// window is a pure function of the two terminal bins and the grid, so it
// keeps routing bit-identical for any Workers value, and it always holds a
// path: a rectangle containing both terminals is connected, and negotiated
// costs never block an edge.
const windowMargin = (presentCap + historyCap) / 2

// edgeCost prices stepping onto the edge at idx of the given orientation.
// Only overuse is priced — sub-capacity edges cost base θ plus history, so
// the Manhattan heuristic stays tight (see the package comment above).
func (ng *negotiator) edgeCost(usage []int, hist []float64, idx int) float64 {
	cost := ng.g.theta + hist[idx]
	if over := usage[idx] + 1 - ng.capacity; over > 0 {
		pres := presentFactor * float64(ng.round) * float64(over)
		if pres > presentCap {
			pres = presentCap
		}
		cost += ng.g.theta * pres
	}
	return cost
}

// biState is the scratch of one bidirectional search: a forward and a
// backward searchState, pooled together.
type biState struct {
	fwd, bwd searchState
}

// biSearch finds the cheapest path from bin s to bin t (s ≠ t) inside
// their window under the negotiated edge costs. The path is written into
// buf (reallocated only when it must grow) and returned along with the
// total heap pops of both sides. Negotiated costs never block an edge, so
// the window always holds a path; nil is returned only defensively.
func (ng *negotiator) biSearch(bi *biState, s, t int, buf []int) ([]int, int) {
	g := ng.g
	n := g.cols * g.rows
	fwd, bwd := &bi.fwd, &bi.bwd
	fwd.begin(n)
	bwd.begin(n)
	sc, sr := s%g.cols, s/g.cols
	tc, tr := t%g.cols, t/g.cols
	// The window: the terminals' bounding box grown by windowMargin bins,
	// clipped to the grid. A neighbour outside it is never relaxed.
	c0, c1 := max(min(sc, tc)-windowMargin, 0), min(max(sc, tc)+windowMargin, g.cols-1)
	r0, r1 := max(min(sr, tr)-windowMargin, 0), min(max(sr, tr)+windowMargin, g.rows-1)
	// pot is the forward side's potential: half the θ·Manhattan bound to t
	// minus half the bound to s. The backward side keys on −pot.
	pot := func(c, r int) float64 {
		return 0.5 * g.theta * float64(absInt(c-tc)+absInt(r-tr)-absInt(c-sc)-absInt(r-sr))
	}
	h0 := 0.5 * g.theta * float64(absInt(sc-tc)+absInt(sr-tr)) // pot(s) = −pot(t)
	fwd.relax(int32(s), -1, 0)
	fwd.push(pqItem{node: int32(s), cost: h0})
	bwd.relax(int32(t), -1, 0)
	bwd.push(pqItem{node: int32(t), cost: h0})
	mu := math.Inf(1)
	meet := int32(-1)
	pops := 0
	for len(fwd.heap) > 0 && len(bwd.heap) > 0 {
		// Once the two frontiers' cheapest keys sum to the best meeting
		// total µ, stop: any undiscovered path joins a node on each
		// frontier, and the potentials cancel along it.
		if fwd.heap[0].cost+bwd.heap[0].cost >= mu {
			break
		}
		st, other, sign := fwd, bwd, 1.0
		if bwd.heap[0].cost < fwd.heap[0].cost {
			st, other, sign = bwd, fwd, -1
		}
		it := st.pop()
		pops++
		if it.g > st.dist[it.node] {
			continue // stale heap entry; the node was relaxed cheaper
		}
		c, r := int(it.node)%g.cols, int(it.node)/g.cols
		try := func(nc, nr int, usage []int, hist []float64, edgeIdx int) {
			nn := int32(nr*g.cols + nc)
			gc := it.g + ng.edgeCost(usage, hist, edgeIdx)
			if gc < st.distAt(nn) {
				st.relax(nn, it.node, gc)
				st.push(pqItem{
					node: nn,
					cost: gc + sign*pot(nc, nr),
					g:    gc,
				})
				if other.stamp[nn] == other.epoch {
					if total := gc + other.dist[nn]; total < mu {
						mu = total
						meet = nn
					}
				}
			}
		}
		if c < c1 {
			try(c+1, r, g.hUsage, ng.histH, r*g.cols+c)
		}
		if c > c0 {
			try(c-1, r, g.hUsage, ng.histH, r*g.cols+c-1)
		}
		if r < r1 {
			try(c, r+1, g.vUsage, ng.histV, r*g.cols+c)
		}
		if r > r0 {
			try(c, r-1, g.vUsage, ng.histV, (r-1)*g.cols+c)
		}
	}
	if meet < 0 {
		return nil, pops
	}
	// Path = forward chain s..meet reversed into place, then the backward
	// chain meet..t appended; both prev chains end at their root's -1.
	steps := 0
	for v := meet; v != -1; v = fwd.prev[v] {
		steps++
	}
	total := steps
	for v := bwd.prev[meet]; v != -1; v = bwd.prev[v] {
		total++
	}
	if cap(buf) < total {
		buf = make([]int, total)
	}
	buf = buf[:total]
	for v, i := meet, steps-1; v != -1; v, i = fwd.prev[v], i-1 {
		buf[i] = int(v)
	}
	for v, i := bwd.prev[meet], steps; v != -1; v, i = bwd.prev[v], i+1 {
		buf[i] = int(v)
	}
	return buf, pops
}

// pathOverCapacity reports whether any edge of the path currently carries
// more than capacity wires, against the live usage arrays.
func (g *grid) pathOverCapacity(path []int, capacity int) bool {
	for i := 1; i < len(path); i++ {
		a, b := path[i-1], path[i]
		if b < a {
			a, b = b, a
		}
		if b == a+1 {
			if g.hUsage[a] > capacity {
				return true
			}
		} else if g.vUsage[a] > capacity {
			return true
		}
	}
	return false
}

// stallImprovement is the minimum fractional drop in overused-edge count a
// round must deliver (vs the round before) to count as progress; a round
// below it is stalled. stallLimit is how many consecutive stalled rounds
// without an available capacity relaxation end the negotiation early, in
// its final relaxation. stallClear sizes a stalled round's capacity jump:
// relax to the smallest capacity that leaves at most 1/stallClear of the
// current overuse.
const (
	stallImprovement = 8 // progress means over < prevOver - prevOver/stallImprovement
	stallLimit       = 3
	stallClear       = 4
)

// negotiate routes the wires by negotiated congestion. Round 1 routes every
// wire; each later round reroutes only the wires whose paths cross an edge
// that finished the previous round over capacity, after pricing that
// overuse into the history costs. A round that barely improves the
// overused-edge count is stalled: the design likely needs more physical
// capacity than pricing alone can negotiate, so the router relaxes the
// virtual capacity (bounded by Options.MaxRelaxations) and keeps
// negotiating. It converges when no edge is overused. If the round budget
// runs out, or rounds keep stalling with no relaxation left, it ends with
// one final relaxation: the capacity rises to the peak edge demand of the
// routing in hand, which legalizes every committed path as it stands.
// The initial list is the wires routed in round 1, in paper order — the
// full rt.order on a from-scratch route, only the dirty wires on a delta
// route (every other wire's path is already committed to the usage maps).
// Later rounds always consider every wire: a warm path crossing an edge the
// new wires congested is ripped and renegotiated like any other.
func (rt *router) negotiate(ctx context.Context, initial []int) error {
	g, res, opts := rt.g, rt.res, rt.opts
	ng := &negotiator{
		g:        g,
		capacity: opts.Capacity,
		histH:    make([]float64, len(g.hUsage)),
		histV:    make([]float64, len(g.vUsage)),
	}
	states := sync.Pool{New: func() interface{} { return new(biState) }}
	pops := make([]int, len(rt.nl.Wires))
	reroute := initial // round 1: the caller's wire set, in the paper's order
	var ripped []int
	batchNo := 0
	prevOver := 0
	stalled := 0
	for round := 1; ; round++ {
		ng.round = round
		start := time.Now()
		queue := reroute
		for len(queue) > 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("route: cancelled before batch %d: %w", batchNo+1, err)
			}
			b := batchSize
			if b > len(queue) {
				b = len(queue)
			}
			cur := queue[:b]
			queue = queue[b:]
			// Speculative searches against the usage snapshot at batch
			// start, fanned across the pool; each search writes only its
			// own wire's slots. Negotiated costs never block, so every
			// path commits — the batch decomposition is fixed by the wire
			// order alone, keeping results bit-identical for any Workers.
			err := parallel.ForCtx(ctx, rt.workers, b, func(i int) {
				wi := cur[i]
				if rt.src[wi] == rt.dst[wi] {
					return // same-bin wires route directly at commit
				}
				bi := states.Get().(*biState)
				path, n := ng.biSearch(bi, rt.src[wi], rt.dst[wi], res.Paths[wi][:0])
				states.Put(bi)
				res.Paths[wi] = path
				pops[wi] = n
			})
			if err != nil {
				return fmt.Errorf("route: cancelled in batch %d: %w", batchNo+1, err)
			}
			batchNo++
			for _, wi := range cur {
				if rt.src[wi] == rt.dst[wi] {
					rt.commitSameBin(wi)
					continue
				}
				path := res.Paths[wi]
				if path == nil {
					return fmt.Errorf("route: no path for wire %d on a connected grid", wi)
				}
				res.Expansions += int64(pops[wi])
				g.commit(path)
				res.WireLength[wi] = PathLength(rt.pl, rt.nl.Wires[wi], path, opts.Theta)
			}
			obs.Emit(opts.Observer, obs.RouteBatch{
				Batch:     batchNo,
				Wires:     b,
				Committed: b,
				Capacity:  ng.capacity,
			})
		}
		res.Rounds = round
		// Demand scan: the overused-edge count at the current capacity and
		// the peak edge demand.
		over, peak := 0, 0
		for _, u := range g.hUsage {
			if u > peak {
				peak = u
			}
			if u > ng.capacity {
				over++
			}
		}
		for _, u := range g.vUsage {
			if u > peak {
				peak = u
			}
			if u > ng.capacity {
				over++
			}
		}
		if over > res.OverusedPeak {
			res.OverusedPeak = over
		}
		res.RoundTimes = append(res.RoundTimes, time.Since(start))
		if over == 0 {
			break
		}
		// A round that barely dented the overuse is stalled: pricing alone
		// is not resolving the contention, so buy physical headroom. Round
		// 1 (prevOver = 0) can never show progress by this test, which is
		// intended: a design whose shortest paths overuse a large fraction
		// of the grid escalates straight off the demand scan instead of
		// burning a full reroute round at a hopeless capacity.
		progress := over < prevOver-prevOver/stallImprovement
		prevOver = over
		escalate := false
		if progress {
			stalled = 0
		} else if res.Relaxations < opts.MaxRelaxations {
			stalled = 0
			escalate = true
		} else {
			stalled++
		}
		if round >= negotiationRounds || stalled >= stallLimit {
			// The design would not converge under negotiation. Relax once
			// more, to the peak demand: every committed path then fits as
			// it stands, so the route completes with the paths in hand.
			ng.capacity = peak
			res.Relaxations++
			obs.Emit(opts.Observer, obs.RouteRelaxation{
				Relaxations: res.Relaxations,
				Capacity:    ng.capacity,
			})
			break
		}
		if escalate {
			// Relax to the smallest capacity that leaves at most
			// 1/stallClear of this round's overuse, read off the demand
			// histogram, rather than stepping by one: a design whose
			// hotspot needs far more capacity than Options.Capacity would
			// otherwise burn one full negotiation round per unit, while
			// the quantile schedule clears the bulk congestion in O(log)
			// stalls and leaves negotiation exactly the contested tail it
			// can actually spread.
			counts := make([]int, peak+1)
			for _, u := range g.hUsage {
				if u > ng.capacity {
					counts[u]++
				}
			}
			for _, u := range g.vUsage {
				if u > ng.capacity {
					counts[u]++
				}
			}
			budget := over / stallClear
			remaining := over
			for remaining > budget && ng.capacity < peak {
				ng.capacity++
				remaining -= counts[ng.capacity]
			}
			res.Relaxations++
		}
		// Price the overuse at the (possibly just relaxed) capacity into
		// the histories — after escalation, so edges the relaxation
		// legalized are not taxed.
		marked := 0
		for i, u := range g.hUsage {
			if u > ng.capacity {
				marked++
				ng.histH[i] = min(ng.histH[i]+historyGain*g.theta*float64(u-ng.capacity), historyCap*g.theta)
			}
		}
		for i, u := range g.vUsage {
			if u > ng.capacity {
				marked++
				ng.histV[i] = min(ng.histV[i]+historyGain*g.theta*float64(u-ng.capacity), historyCap*g.theta)
			}
		}
		if marked == 0 {
			// Only an escalation can clear every edge here: the relaxation
			// alone legalized the routing, so it is the last one.
			obs.Emit(opts.Observer, obs.RouteRelaxation{
				Relaxations: res.Relaxations,
				Capacity:    ng.capacity,
			})
			break
		}
		// Partial rip-up, in reverse wire order: uncommitting decrements
		// usage live, so a wire is ripped only while an edge on its path
		// is still over capacity, and each hot edge sheds exactly its
		// excess rather than its whole herd. Ripping every crossing wire
		// instead makes hundreds of wires reroute against the same
		// snapshot, pile onto the same alternative corridor, and
		// oscillate. The reverse scan sheds the paper's least-prioritized
		// wires; the survivors keep their paths.
		ripped = ripped[:0]
		for oi := len(rt.order) - 1; oi >= 0; oi-- {
			wi := rt.order[oi]
			path := res.Paths[wi]
			if len(path) < 2 {
				continue
			}
			if g.pathOverCapacity(path, ng.capacity) {
				g.uncommit(path)
				ripped = append(ripped, wi)
			}
		}
		// Reroute the ripped wires in paper order, most important first.
		for i, j := 0, len(ripped)-1; i < j; i, j = i+1, j-1 {
			ripped[i], ripped[j] = ripped[j], ripped[i]
		}
		res.RipUps += len(ripped)
		reroute = ripped
		if escalate {
			obs.Emit(opts.Observer, obs.RouteRelaxation{
				Relaxations: res.Relaxations,
				Capacity:    ng.capacity,
				Pending:     len(ripped),
			})
		}
	}
	res.FinalCapacity = ng.capacity
	return nil
}
