package route

import (
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
//  1. each wire's path starts in its source bin, ends in its target bin,
//     and steps only between edge-adjacent bins (a same-bin wire's path is
//     its single bin);
//  2. the congestion map Usage is exactly the per-bin visit count summed
//     over all paths;
//  3. no grid edge carries more wires than FinalCapacity.
func checkRouteInvariants(t *testing.T, nl *netlist.Netlist, pl *place.Result, opts Options, res *Result) int {
	t.Helper()
	g, err := newGrid(pl, opts.Theta)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cols != g.cols || res.Rows != g.rows {
		t.Fatalf("result grid %d×%d, want %d×%d", res.Cols, res.Rows, g.cols, g.rows)
	}
	usage := make([]int, g.cols*g.rows)
	hUse := make([]int, g.cols*g.rows)
	vUse := make([]int, g.cols*g.rows)
	for _, w := range nl.Wires {
		path := res.Paths[w.ID]
		if len(path) == 0 {
			t.Fatalf("wire %d has no path", w.ID)
		}
		sc, sr := g.binOf(pl.X[w.From], pl.Y[w.From])
		tc, tr := g.binOf(pl.X[w.To], pl.Y[w.To])
		src, dst := sr*g.cols+sc, tr*g.cols+tc
		if path[0] != src {
			t.Fatalf("wire %d starts at bin %d, want source bin %d", w.ID, path[0], src)
		}
		if path[len(path)-1] != dst {
			t.Fatalf("wire %d ends at bin %d, want target bin %d", w.ID, path[len(path)-1], dst)
		}
		if src == dst && len(path) != 1 {
			t.Fatalf("same-bin wire %d has %d-bin path", w.ID, len(path))
		}
		for i := 1; i < len(path); i++ {
			a, b := path[i-1], path[i]
			ac, ar := a%g.cols, a/g.cols
			bc, br := b%g.cols, b/g.cols
			if absInt(ac-bc)+absInt(ar-br) != 1 {
				t.Fatalf("wire %d step %d: bins %d→%d not adjacent", w.ID, i, a, b)
			}
			if b < a {
				a = b
			}
			if absInt(ac-bc) == 1 {
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
