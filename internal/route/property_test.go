package route

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/place"
)

// congestedNetlist builds a 10×10 cell grid with the chain wires of
// gridNetlist plus extra random long-haul wires, dense enough that a small
// starting capacity forces the router through negotiation rounds and
// capacity relaxations.
func congestedNetlist(t *testing.T) (*netlist.Netlist, *place.Result) {
	t.Helper()
	nl, pl := gridNetlist(100, 3)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		a, b := rng.Intn(100), rng.Intn(100)
		if a == b {
			continue
		}
		nl.Wires = append(nl.Wires, netlist.Wire{ID: len(nl.Wires), From: a, To: b, Weight: 1})
	}
	return nl, pl
}

// checkRouteInvariants asserts the structural properties every routed
// result must satisfy, and returns the peak edge usage:
//
//  1. CheckPaths accepts the routing: each wire's path starts in its
//     source bin, ends in its target bin, and steps only between
//     edge-adjacent bins (a same-bin wire's path is its single bin), and
//     each wire's length is its path's;
//  2. the congestion map Usage is exactly the per-bin visit count summed
//     over all paths;
//  3. no grid edge carries more wires than FinalCapacity;
//  4. every multi-bin path lies inside its wire's window: the bounding box
//     of its terminal bins grown by windowMargin bins on every side.
func checkRouteInvariants(t *testing.T, nl *netlist.Netlist, pl *place.Result, opts Options, res *Result) int {
	t.Helper()
	g, err := newGrid(pl, opts.Theta)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cols != g.cols || res.Rows != g.rows {
		t.Fatalf("result grid %d×%d, want %d×%d", res.Cols, res.Rows, g.cols, g.rows)
	}
	if err := CheckPaths(nl, pl, opts.Theta, res.Paths, res.WireLength); err != nil {
		t.Fatal(err)
	}
	usage := make([]int, g.cols*g.rows)
	hUse := make([]int, g.cols*g.rows)
	vUse := make([]int, g.cols*g.rows)
	for _, w := range nl.Wires {
		path := res.Paths[w.ID]
		src, dst := g.terminalBins(pl, w)
		if b, ok := outsideWindow(g.cols, src, dst, path); !ok {
			t.Fatalf("wire %d: path bin %d outside the window of bins %d→%d", w.ID, b, src, dst)
		}
		for i := 1; i < len(path); i++ {
			a, b := path[i-1], path[i]
			horizontal := a/g.cols == b/g.cols
			if b < a {
				a = b
			}
			if horizontal {
				hUse[a]++
			} else {
				vUse[a]++
			}
		}
		for _, b := range path {
			usage[b]++
		}
	}
	for i, u := range usage {
		if res.Usage[i] != u {
			t.Fatalf("bin %d usage %d, want recomputed %d", i, res.Usage[i], u)
		}
	}
	peak := 0
	for i, u := range hUse {
		if u > res.FinalCapacity {
			t.Fatalf("horizontal edge %d carries %d wires, capacity %d", i, u, res.FinalCapacity)
		}
		peak = max(peak, u)
	}
	for i, u := range vUse {
		if u > res.FinalCapacity {
			t.Fatalf("vertical edge %d carries %d wires, capacity %d", i, u, res.FinalCapacity)
		}
		peak = max(peak, u)
	}
	return peak
}

// outsideWindow reports the first bin of path outside the window of the
// wire from bin src to bin dst on a grid cols wide (ok = false), or ok =
// true when the whole path lies inside. Clipping the window to the grid
// changes nothing here: every bin of a path is on the grid.
func outsideWindow(cols, src, dst int, path []int) (bin int, ok bool) {
	sc, sr, tc, tr := src%cols, src/cols, dst%cols, dst/cols
	for _, b := range path {
		c, r := b%cols, b/cols
		if c < min(sc, tc)-windowMargin || c > max(sc, tc)+windowMargin ||
			r < min(sr, tr)-windowMargin || r > max(sr, tr)+windowMargin {
			return b, false
		}
	}
	return 0, true
}

// TestRouteSearchSaturatedBox saturates every edge inside a wire's
// bounding box, so the cheapest path detours around the box: the search
// must still find a path between the terminals, leave the box, and stay
// inside the window — and neither side may even relax a bin outside it.
// With every edge of the grid saturated instead, no detour pays, and the
// search must still complete inside the window.
func TestRouteSearchSaturatedBox(t *testing.T) {
	const cols, rows = 60, 50
	s, d := 20*cols+20, 25*cols+30 // bounding box: columns 20..30, rows 20..25
	inBox := func(b int) bool {
		c, r := b%cols, b/cols
		return c >= 20 && c <= 30 && r >= 20 && r <= 25
	}
	for _, tc := range []struct {
		name      string
		saturated func(a, b int) bool // is the edge between bins a and b saturated
		leavesBox bool
	}{
		{"box", func(a, b int) bool { return inBox(a) && inBox(b) }, true},
		{"grid", func(a, b int) bool { return true }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := testGrid(cols, rows)
			ng := testNegotiator(g)
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					a := r*cols + c
					if c+1 < cols && tc.saturated(a, a+1) {
						g.hUsage[a] = 100
						ng.histH[a] = historyCap * g.theta
					}
					if r+1 < rows && tc.saturated(a, a+cols) {
						g.vUsage[a] = 100
						ng.histV[a] = historyCap * g.theta
					}
				}
			}
			bi := new(biState)
			path, _ := ng.biSearch(bi, s, d, nil)
			for b := 0; b < cols*rows; b++ {
				touched := bi.fwd.stamp[b] == bi.fwd.epoch || bi.bwd.stamp[b] == bi.bwd.epoch
				if _, ok := outsideWindow(cols, s, d, []int{b}); touched && !ok {
					t.Fatalf("search relaxed bin %d outside the window", b)
				}
			}
			if len(path) < 2 || path[0] != s || path[len(path)-1] != d {
				t.Fatalf("path %v does not run from bin %d to bin %d", path, s, d)
			}
			left := false
			for i, b := range path {
				if i > 0 && absInt(b%cols-path[i-1]%cols)+absInt(b/cols-path[i-1]/cols) != 1 {
					t.Fatalf("step %d: bins %d→%d not adjacent", i, path[i-1], b)
				}
				left = left || !inBox(b)
			}
			if b, ok := outsideWindow(cols, s, d, path); !ok {
				t.Fatalf("path bin %d outside the window", b)
			}
			if left != tc.leavesBox {
				t.Fatalf("path leaves the bounding box: %v, want %v", left, tc.leavesBox)
			}
		})
	}
}

// TestRouteSearchWindowBindsDetour builds the case the window exists for:
// two saturated walls cross the whole window between a wire's terminals,
// and the free detour around them passes one bin beyond the margin. That
// detour is the cheapest path on the full grid (28θ of free edges against
// 10θ plus two walls at (presentCap+historyCap)·θ extra each), so only the
// window keeps the search from taking it: the search must cross the walls
// and relax no bin outside the window.
func TestRouteSearchWindowBindsDetour(t *testing.T) {
	const cols, rows = 60, 50
	s, d := 20*cols+20, 20*cols+30 // window: columns 12..38, rows 12..28
	g := testGrid(cols, rows)
	ng := &negotiator{
		g: g, capacity: 8, round: 3,
		histH: make([]float64, len(g.hUsage)),
		histV: make([]float64, len(g.vUsage)),
	}
	for r := 12; r <= 28; r++ {
		for _, c := range []int{24, 25} { // the edges (24,r)–(25,r) and (25,r)–(26,r)
			g.hUsage[r*cols+c] = 100
			ng.histH[r*cols+c] = historyCap * g.theta
		}
	}
	bi := new(biState)
	path, _ := ng.biSearch(bi, s, d, nil)
	if len(path) < 2 || path[0] != s || path[len(path)-1] != d {
		t.Fatalf("path %v does not run from bin %d to bin %d", path, s, d)
	}
	if b, ok := outsideWindow(cols, s, d, path); !ok {
		t.Fatalf("path bin %d outside the window: the search took the detour", b)
	}
	for b := 0; b < cols*rows; b++ {
		touched := bi.fwd.stamp[b] == bi.fwd.epoch || bi.bwd.stamp[b] == bi.bwd.epoch
		if _, ok := outsideWindow(cols, s, d, []int{b}); touched && !ok {
			t.Fatalf("search relaxed bin %d outside the window", b)
		}
	}
}

// stepCost prices the step between adjacent bins a and b as a search
// entering the edge would.
func stepCost(ng *negotiator, a, b int) float64 {
	if b < a {
		a, b = b, a
	}
	if b == a+1 {
		return ng.edgeCost(ng.g.hUsage, ng.histH, a)
	}
	return ng.edgeCost(ng.g.vUsage, ng.histV, a)
}

// windowDijkstra is the reference for biSearch: the cheapest s→t cost by
// plain Dijkstra over the bins of the wire's window.
func windowDijkstra(ng *negotiator, s, t int) float64 {
	g := ng.g
	n := g.cols * g.rows
	dist := make([]float64, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[s] = 0
	for {
		u := -1
		for v := 0; v < n; v++ {
			if !done[v] && !math.IsInf(dist[v], 1) && (u < 0 || dist[v] < dist[u]) {
				u = v
			}
		}
		if u < 0 || u == t {
			return dist[t]
		}
		done[u] = true
		for _, step := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			c, r := u%g.cols+step[0], u/g.cols+step[1]
			if c < 0 || c >= g.cols || r < 0 || r >= g.rows {
				continue
			}
			v := r*g.cols + c
			if _, ok := outsideWindow(g.cols, s, t, []int{v}); !ok {
				continue
			}
			if d := dist[u] + stepCost(ng, u, v); d < dist[v] {
				dist[v] = d
			}
		}
	}
}

// TestRouteSearchExact pins that biSearch returns a cheapest path inside
// the window: on randomly congested grids (overused edges priced at every
// level up to the caps, plus history), its path costs exactly what plain
// Dijkstra over the window finds.
func TestRouteSearchExact(t *testing.T) {
	const cols, rows = 30, 25
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 12; trial++ {
		g := testGrid(cols, rows)
		ng := testNegotiator(g)
		// About a third of the edges overused (capacity 8), a quarter with
		// history, the rest free at exactly θ.
		for i := range g.hUsage {
			g.hUsage[i] = rng.Intn(12)
			g.vUsage[i] = rng.Intn(12)
			ng.histH[i] = float64(rng.Intn(16)/12) * rng.Float64() * historyCap * g.theta
			ng.histV[i] = float64(rng.Intn(16)/12) * rng.Float64() * historyCap * g.theta
		}
		bi := new(biState)
		for pair := 0; pair < 20; pair++ {
			s, d := rng.Intn(cols*rows), rng.Intn(cols*rows)
			if s == d {
				continue
			}
			path, _ := ng.biSearch(bi, s, d, nil)
			if len(path) < 2 || path[0] != s || path[len(path)-1] != d {
				t.Fatalf("trial %d: path %v does not run from bin %d to bin %d", trial, path, s, d)
			}
			got := 0.0
			for i := 1; i < len(path); i++ {
				got += stepCost(ng, path[i-1], path[i])
			}
			if want := windowDijkstra(ng, s, d); math.Abs(got-want) > 1e-9*want {
				t.Fatalf("trial %d, bins %d→%d: path costs %g, the window's cheapest is %g", trial, s, d, got, want)
			}
		}
	}
}

// TestRoutePathProperties checks the invariants on a congested workload.
func TestRoutePathProperties(t *testing.T) {
	nl, pl := congestedNetlist(t)
	t.Run("negotiated", func(t *testing.T) {
		opts := DefaultOptions()
		opts.Theta = 3
		opts.Capacity = 2
		res, err := Route(nl, pl, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds == 0 {
			t.Fatal("router reported zero negotiation rounds")
		}
		checkRouteInvariants(t, nl, pl, opts, res)
	})
}

// TestRouteFinalRelaxation denies every stall escalation (MaxRelaxations =
// 0) on a congested design, so the negotiation cannot converge: it must
// still complete, with one final relaxation to exactly the peak edge
// demand of the committed paths, announced like any other relaxation.
func TestRouteFinalRelaxation(t *testing.T) {
	nl, pl := congestedNetlist(t)
	opts := DefaultOptions()
	opts.Theta = 3
	opts.Capacity = 2
	opts.MaxRelaxations = 0
	m := &obs.Metrics{}
	opts.Observer = m
	res, err := Route(nl, pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relaxations != 1 {
		t.Fatalf("%d relaxations, want exactly the final one", res.Relaxations)
	}
	if peak := checkRouteInvariants(t, nl, pl, opts, res); res.FinalCapacity != peak {
		t.Fatalf("final capacity %d, want the peak edge usage %d", res.FinalCapacity, peak)
	}
	if res.FinalCapacity <= opts.Capacity {
		t.Fatalf("final capacity %d did not relax the starting %d", res.FinalCapacity, opts.Capacity)
	}
	if n := m.Snapshot().Relaxations; n != 1 {
		t.Fatalf("observer saw %d relaxation events, want 1", n)
	}
}

// relaxationLog records the RouteRelaxation events of one routing.
type relaxationLog []obs.RouteRelaxation

func (l *relaxationLog) Observe(e obs.Event) {
	if r, ok := e.(obs.RouteRelaxation); ok {
		*l = append(*l, r)
	}
}

// TestRouteRelaxationEvents checks that every capacity relaxation is
// announced, in order, on a design where one stall escalation legalizes
// every edge by itself and so ends the negotiation: the events must number
// RouteStats.Relaxations and the last must carry the final capacity.
func TestRouteRelaxationEvents(t *testing.T) {
	nl, pl := congestedNetlist(t)
	opts := DefaultOptions()
	opts.Theta = 6
	opts.Capacity = 2
	var log relaxationLog
	opts.Observer = &log
	res, err := Route(nl, pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkRouteInvariants(t, nl, pl, opts, res)
	if res.Relaxations < 2 {
		t.Fatalf("%d relaxations, want a design that escalates more than once", res.Relaxations)
	}
	if len(log) != res.Relaxations {
		t.Fatalf("observer saw %d relaxation events, route reports %d", len(log), res.Relaxations)
	}
	for i, e := range log {
		if e.Relaxations != i+1 {
			t.Fatalf("event %d numbered %d, want %d", i, e.Relaxations, i+1)
		}
	}
	if last := log[len(log)-1]; last.Capacity != res.FinalCapacity || last.Pending != 0 {
		t.Fatalf("last relaxation %+v, want capacity %d with nothing pending", last, res.FinalCapacity)
	}
}
