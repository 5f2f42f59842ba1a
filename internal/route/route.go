// Package route implements the global routing stage of Section 3.5: a grid
// graph with user-defined bin width θ [18], per-edge virtual capacity [17],
// and maze routing [16] ordered by each wire's distance from the center of
// gravity of all cells (wire weight as the tie breaker).
//
// Congestion is resolved by PathFinder-style negotiation (negotiate.go):
// searches never block on full edges; instead each edge is priced by its
// present overuse and a history cost that accumulates across
// rip-up-and-reroute rounds, so wires negotiate shared edges until no edge
// exceeds the virtual capacity. Stalled rounds relax that capacity, the
// paper's escalation; a negotiation that runs out of rounds ends with one
// final relaxation to the peak edge demand, so every route completes.
// Searches run bidirectionally (meet-in-the-middle A* under the Manhattan
// bound), each confined to its wire's window: the terminals' bounding box
// plus a margin derived from the price caps.
//
// Wires are processed in fixed batches: every wire of a batch runs its maze
// search against the usage snapshot at batch start (those searches fan out
// across Options.Workers goroutines), then the found paths commit
// sequentially in wire order. The batch decomposition is fixed by the wire
// order alone — never by the worker count — so routing results are
// bit-identical for any Workers value.
package route

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/place"
)

// Options tunes the router.
type Options struct {
	// Theta is the grid bin width θ in µm.
	Theta float64
	// Capacity is the initial virtual capacity: the number of wires each
	// grid edge may carry before it is overused.
	Capacity int
	// MaxRelaxations bounds the capacity escalations of stalled negotiation
	// rounds. A negotiation that runs out of rounds, or keeps stalling once
	// the budget is spent, ends with one more, final relaxation to the peak
	// edge demand.
	MaxRelaxations int
	// Workers bounds the goroutines running a batch's maze searches.
	// Zero means the parallel package default; negative is rejected.
	Workers int
	// Observer, when non-nil, receives an obs.RouteBatch event after every
	// committed batch, an obs.RouteRelaxation event at every capacity
	// relaxation, and one obs.RouteStats summary after the route finishes.
	// Observers are passive: they cannot change the routing.
	Observer obs.Observer
}

// DefaultOptions returns the parameter set used by the experiments.
func DefaultOptions() Options {
	return Options{
		Theta:          2.0,
		Capacity:       8,
		MaxRelaxations: 64,
	}
}

func (o Options) validate() error {
	if o.Theta <= 0 {
		return fmt.Errorf("route: theta %g must be positive", o.Theta)
	}
	if o.Capacity <= 0 {
		return fmt.Errorf("route: capacity %d must be positive", o.Capacity)
	}
	if o.MaxRelaxations < 0 {
		return fmt.Errorf("route: max relaxations %d must be ≥ 0", o.MaxRelaxations)
	}
	if o.Workers < 0 {
		return fmt.Errorf("route: negative worker count %d", o.Workers)
	}
	return nil
}

// Result holds the routed design.
type Result struct {
	// WireLength is the routed length of each wire in µm, indexed by wire
	// ID.
	WireLength []float64
	// Total is the summed routed wirelength in µm.
	Total float64
	// Cols, Rows are the grid dimensions.
	Cols, Rows int
	// Usage is the per-bin wire presence count (how many routed wires pass
	// through each bin), row-major — the congestion map of Figure 10.
	Usage []int
	// Relaxations is how many capacity relaxations were needed, the final
	// one included.
	Relaxations int
	// FinalCapacity is the virtual capacity after relaxation: no grid edge
	// carries more wires.
	FinalCapacity int
	// Paths holds each wire's committed bin sequence, indexed by wire ID.
	// A same-bin wire's path is its single bin.
	Paths [][]int
	// Rounds is how many negotiation rounds ran.
	Rounds int
	// RipUps is how many wires were ripped up and rerouted, over all rounds.
	RipUps int
	// Expansions counts heap pops across every maze search.
	Expansions int64
	// OverusedPeak is the most over-capacity edges seen after any round.
	OverusedPeak int
	// RoundTimes is the wall time of each negotiation round — diagnostic
	// only, never part of the deterministic result.
	RoundTimes []time.Duration
}

// MaxUsage returns the peak bin congestion.
func (r *Result) MaxUsage() int {
	max := 0
	for _, u := range r.Usage {
		if u > max {
			max = u
		}
	}
	return max
}

// UsageAt returns the congestion of bin (col, row).
func (r *Result) UsageAt(col, row int) int { return r.Usage[row*r.Cols+col] }

// grid is the routing graph: bins with horizontal and vertical edge usage.
type grid struct {
	cols, rows int
	theta      float64
	minX, minY float64
	// hUsage[r*cols+c] is the usage of the edge from (c,r) to (c+1,r);
	// vUsage[r*cols+c] of the edge from (c,r) to (c,r+1).
	hUsage, vUsage []int
}

// MaxGridBins caps the bins of a routing grid. It bounds the memory a
// placement box can claim — the usage maps hold one int per bin — the way
// graph.MaxLoadNeurons bounds a loaded network: the placement of the
// 2000-neuron benchmark network spans ~59k bins at θ = 2 µm, about 70×
// below the cap, while a decoded artifact's box is untrusted input.
const MaxGridBins = 1 << 22

// GridDims returns the dimensions of the routing grid over a placement box
// of the given width and height (µm) at bin width theta: enough θ bins to
// span the box, floored at one, plus one in each direction. ok is false,
// with zero dimensions, when theta is not positive or the grid would
// exceed MaxGridBins bins (a non-finite box included).
func GridDims(width, height, theta float64) (cols, rows int, ok bool) {
	if !(theta > 0) {
		return 0, 0, false
	}
	c := math.Ceil(math.Max(width, theta)/theta) + 1
	r := math.Ceil(math.Max(height, theta)/theta) + 1
	if !(c*r <= MaxGridBins) {
		return 0, 0, false
	}
	return int(c), int(r), true
}

// newGrid sizes the routing grid over the placement, with empty usage maps.
func newGrid(pl *place.Result, theta float64) (*grid, error) {
	g, err := gridOver(pl, theta)
	if err != nil {
		return nil, err
	}
	g.hUsage = make([]int, g.cols*g.rows)
	g.vUsage = make([]int, g.cols*g.rows)
	return g, nil
}

// gridOver sizes the routing grid over the placement without allocating
// its usage maps: enough to map pins to bins.
func gridOver(pl *place.Result, theta float64) (*grid, error) {
	cols, rows, ok := GridDims(pl.Width(), pl.Height(), theta)
	if !ok {
		return nil, fmt.Errorf("route: a %g×%g µm placement at θ=%g µm exceeds the %d-bin grid cap",
			pl.Width(), pl.Height(), theta, MaxGridBins)
	}
	return &grid{cols: cols, rows: rows, theta: theta, minX: pl.MinX, minY: pl.MinY}, nil
}

// terminalBins returns the row-major bins of the wire's source and target
// pins.
func (g *grid) terminalBins(pl *place.Result, w netlist.Wire) (src, dst int) {
	sc, sr := g.binOf(pl.X[w.From], pl.Y[w.From])
	tc, tr := g.binOf(pl.X[w.To], pl.Y[w.To])
	return sr*g.cols + sc, tr*g.cols + tc
}

func (g *grid) binOf(x, y float64) (int, int) {
	c := int((x - g.minX) / g.theta)
	r := int((y - g.minY) / g.theta)
	if c < 0 {
		c = 0
	}
	if c >= g.cols {
		c = g.cols - 1
	}
	if r < 0 {
		r = 0
	}
	if r >= g.rows {
		r = g.rows - 1
	}
	return c, r
}

// pqItem is a priority-queue entry for the A* search: cost is the key
// used for ordering (g plus the side's potential), g the actual path cost
// so far.
type pqItem struct {
	node int32
	cost float64
	g    float64
}

// searchState is the reusable scratch of one direction of a maze search:
// g-costs, predecessors, and a typed binary heap. A search validates its
// per-node entries with an epoch stamp, so starting a new search is O(1) —
// no O(bins) reinitialization, and the arrays allocate only when the grid
// grows. The heap replicates container/heap's sift algorithms exactly (same
// comparisons, same swaps), so pushes never allocate a boxed entry.
type searchState struct {
	dist  []float64
	prev  []int32
	stamp []uint32
	epoch uint32
	heap  []pqItem
}

// begin readies the state for a search over n bins.
func (st *searchState) begin(n int) {
	if len(st.stamp) < n {
		st.dist = make([]float64, n)
		st.prev = make([]int32, n)
		st.stamp = make([]uint32, n)
		st.epoch = 0
	}
	st.epoch++
	if st.epoch == 0 { // wrapped: stale stamps could collide, clear them
		for i := range st.stamp {
			st.stamp[i] = 0
		}
		st.epoch = 1
	}
	st.heap = st.heap[:0]
}

// distAt returns node's g-cost this search, +Inf if untouched.
func (st *searchState) distAt(node int32) float64 {
	if st.stamp[node] != st.epoch {
		return math.Inf(1)
	}
	return st.dist[node]
}

// relax records a cheaper route to node.
func (st *searchState) relax(node, from int32, g float64) {
	st.stamp[node] = st.epoch
	st.dist[node] = g
	st.prev[node] = from
}

// push and pop maintain the min-heap on cost with the exact sift moves of
// container/heap (append + up; swap-to-end + down + shrink).
func (st *searchState) push(it pqItem) {
	st.heap = append(st.heap, it)
	h := st.heap
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(h[j].cost < h[i].cost) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (st *searchState) pop() pqItem {
	h := st.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].cost < h[j1].cost {
			j = j2
		}
		if !(h[j].cost < h[i].cost) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	st.heap = h[:n]
	return it
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// commit adds the path's edges to the usage maps.
func (g *grid) commit(path []int) {
	for i := 1; i < len(path); i++ {
		a, b := path[i-1], path[i]
		if b < a {
			a, b = b, a
		}
		if b == a+1 { // horizontal
			g.hUsage[a]++
		} else { // vertical
			g.vUsage[a]++
		}
	}
}

// uncommit removes the path's edges from the usage maps — the inverse of
// commit, used when negotiation rips a wire up for rerouting.
func (g *grid) uncommit(path []int) {
	for i := 1; i < len(path); i++ {
		a, b := path[i-1], path[i]
		if b < a {
			a, b = b, a
		}
		if b == a+1 { // horizontal
			g.hUsage[a]--
		} else { // vertical
			g.vUsage[a]--
		}
	}
}

// Route routes every wire of the netlist over the placed design. The wire
// order follows the paper: ascending distance from the center of gravity of
// all cells to the wire's closest pin, with the wire weight breaking ties
// (heavier first). Every wire is routed: overuse the negotiation cannot
// resolve is absorbed by relaxing the virtual capacity, so the only errors
// are invalid options, a placement too large for MaxGridBins, and
// cancellation.
func Route(nl *netlist.Netlist, pl *place.Result, opts Options) (*Result, error) {
	return RouteCtx(context.Background(), nl, pl, opts)
}

// RouteCtx is Route under a context: cancellation is checked at the top of
// every batch and between the strides of a batch's parallel maze searches,
// so a cancel returns a wrapped ctx.Err() within one route batch. An
// uncancelled RouteCtx is bit-identical to Route.
func RouteCtx(ctx context.Context, nl *netlist.Netlist, pl *place.Result, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	res := &Result{WireLength: make([]float64, len(nl.Wires))}
	if len(nl.Wires) == 0 {
		return emptyResult(res, opts), nil
	}
	rt, err := newRouter(nl, pl, opts, res)
	if err != nil {
		return nil, err
	}
	if err := rt.negotiate(ctx, rt.order); err != nil {
		return nil, err
	}
	rt.finalize()
	return res, nil
}

// emptyResult completes the result of a netlist with no wires: a one-bin
// grid at the initial capacity.
func emptyResult(res *Result, opts Options) *Result {
	res.Cols, res.Rows = 1, 1
	res.Usage = make([]int, 1)
	res.FinalCapacity = opts.Capacity
	obs.Emit(opts.Observer, routeStatsOf(res, 0))
	return res
}

// newRouter builds the per-route state both entry points (from-scratch and
// delta) share: the grid over the placement, the paper's wire order, and
// the precomputed terminal bins. It sizes res.Paths and records the grid
// dimensions.
func newRouter(nl *netlist.Netlist, pl *place.Result, opts Options, res *Result) (*router, error) {
	g, err := newGrid(pl, opts.Theta)
	if err != nil {
		return nil, err
	}
	res.Cols, res.Rows = g.cols, g.rows

	// Center of gravity of all cells.
	cgx, cgy := 0.0, 0.0
	for i := range nl.Cells {
		cgx += pl.X[i]
		cgy += pl.Y[i]
	}
	cgx /= float64(len(nl.Cells))
	cgy /= float64(len(nl.Cells))

	order := make([]int, len(nl.Wires))
	key := make([]float64, len(nl.Wires))
	for i, w := range nl.Wires {
		d1 := math.Abs(pl.X[w.From]-cgx) + math.Abs(pl.Y[w.From]-cgy)
		d2 := math.Abs(pl.X[w.To]-cgx) + math.Abs(pl.Y[w.To]-cgy)
		key[i] = math.Min(d1, d2)
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		wa, wb := order[a], order[b]
		if key[wa] != key[wb] {
			return key[wa] < key[wb]
		}
		return nl.Wires[wa].Weight > nl.Wires[wb].Weight
	})

	// Source/target bins depend only on the placement; compute once.
	src := make([]int, len(nl.Wires))
	dst := make([]int, len(nl.Wires))
	for i, w := range nl.Wires {
		src[i], dst[i] = g.terminalBins(pl, w)
	}
	res.Paths = make([][]int, len(nl.Wires))
	return &router{
		g: g, nl: nl, pl: pl, opts: opts, res: res,
		order: order, src: src, dst: dst,
		workers: parallel.Resolve(opts.Workers),
	}, nil
}

// finalize sums the total wirelength, rebuilds the congestion map from the
// committed paths, and emits the summary event.
func (rt *router) finalize() {
	res := rt.res
	res.Total = 0
	for _, l := range res.WireLength {
		res.Total += l
	}
	// Congestion map: wires passing through each bin.
	res.Usage = make([]int, rt.g.cols*rt.g.rows)
	for _, path := range res.Paths {
		for _, b := range path {
			res.Usage[b]++
		}
	}
	obs.Emit(rt.opts.Observer, routeStatsOf(res, len(rt.nl.Wires)))
}

// routeStatsOf packs a Result's counters into the summary event.
func routeStatsOf(res *Result, wires int) obs.RouteStats {
	return obs.RouteStats{
		Wires:         wires,
		Rounds:        res.Rounds,
		RipUps:        res.RipUps,
		Expansions:    res.Expansions,
		OverusedPeak:  res.OverusedPeak,
		Relaxations:   res.Relaxations,
		FinalCapacity: res.FinalCapacity,
		RoundTimes:    res.RoundTimes,
	}
}

// router bundles the per-route state: the grid, the paper's wire order, the
// precomputed terminal bins, and the resolved worker count.
type router struct {
	g        *grid
	nl       *netlist.Netlist
	pl       *place.Result
	opts     Options
	res      *Result
	order    []int
	src, dst []int
	workers  int
}

// commitSameBin routes a wire whose terminals share a bin: a direct
// connection consuming no grid edges.
func (rt *router) commitSameBin(wi int) {
	rt.res.Paths[wi] = append(rt.res.Paths[wi][:0], rt.src[wi])
	rt.res.WireLength[wi] = PathLength(rt.pl, rt.nl.Wires[wi], rt.res.Paths[wi], rt.opts.Theta)
}

// PathLength is the length the router records for wire w routed along
// path at bin width theta: θ per step between bins, or, for a one-bin path
// (both pins in one bin), the physical pin distance floored at θ/2. A
// routing stored without its lengths derives them by this rule.
func PathLength(pl *place.Result, w netlist.Wire, path []int, theta float64) float64 {
	if len(path) == 1 {
		return math.Max(math.Abs(pl.X[w.From]-pl.X[w.To])+math.Abs(pl.Y[w.From]-pl.Y[w.To]), theta/2)
	}
	return float64(len(path)-1) * theta
}

// CheckPaths verifies a routing of the netlist over the placement at bin
// width theta, as Route would have produced it: one path and one length
// per wire; every path starts in its wire's source bin, ends in its target
// bin, and steps only between edge-adjacent bins of the grid (a same-bin
// wire's path is its one bin); and every length is exactly what the router
// records for that path. It guards routings read from untrusted bytes,
// such as a decoded artifact's, before they are trusted as warm paths.
func CheckPaths(nl *netlist.Netlist, pl *place.Result, theta float64, paths [][]int, lengths []float64) error {
	if len(pl.X) != len(nl.Cells) || len(pl.Y) != len(nl.Cells) {
		return fmt.Errorf("route: placement has %d x and %d y coordinates for %d cells", len(pl.X), len(pl.Y), len(nl.Cells))
	}
	if len(paths) != len(nl.Wires) || len(lengths) != len(nl.Wires) {
		return fmt.Errorf("route: %d paths and %d lengths for %d wires", len(paths), len(lengths), len(nl.Wires))
	}
	g, err := gridOver(pl, theta)
	if err != nil {
		return err
	}
	cols, rows := g.cols, g.rows
	for wi, w := range nl.Wires {
		path := paths[wi]
		src, dst := g.terminalBins(pl, w)
		switch {
		case src == dst && (len(path) != 1 || path[0] != src):
			return fmt.Errorf("route: wire %d has both pins in bin %d, its path must be that one bin", wi, src)
		case src != dst && (len(path) < 2 || path[0] != src || path[len(path)-1] != dst):
			return fmt.Errorf("route: wire %d's path must run from bin %d to bin %d", wi, src, dst)
		}
		for i, b := range path {
			if b < 0 || b >= cols*rows {
				return fmt.Errorf("route: wire %d path bin %d outside the %d×%d grid", wi, b, cols, rows)
			}
			if i > 0 {
				a := path[i-1]
				if absInt(a%cols-b%cols)+absInt(a/cols-b/cols) != 1 {
					return fmt.Errorf("route: wire %d path steps from bin %d to non-adjacent bin %d", wi, a, b)
				}
			}
		}
		if want := PathLength(pl, w, path, theta); lengths[wi] != want {
			return fmt.Errorf("route: wire %d length %g µm, its path routes %g µm", wi, lengths[wi], want)
		}
	}
	return nil
}
