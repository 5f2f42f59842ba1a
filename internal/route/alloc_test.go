package route

import (
	"testing"
)

func testGrid(cols, rows int) *grid {
	return &grid{
		cols: cols, rows: rows, theta: 2,
		hUsage: make([]int, cols*rows),
		vUsage: make([]int, cols*rows),
	}
}

// testNegotiator prices g at capacity 8 in round 3, with history on every
// 11th horizontal edge.
func testNegotiator(g *grid) *negotiator {
	ng := &negotiator{
		g: g, capacity: 8, round: 3,
		histH: make([]float64, len(g.hUsage)),
		histV: make([]float64, len(g.vUsage)),
	}
	for i := range ng.histH {
		if i%11 == 0 {
			ng.histH[i] = 4 * g.theta
		}
	}
	return ng
}

// TestRouteNegotiateSearchAllocs pins the negotiation inner loop: once the
// pooled biState has grown to the grid and the path buffer to the path
// length, a warm bidirectional search allocates nothing — searches write
// into the wire's reused Paths slot and the pooled scratch.
func TestRouteNegotiateSearchAllocs(t *testing.T) {
	g := testGrid(40, 40)
	for i := range g.hUsage {
		if i%5 == 0 {
			g.hUsage[i] = 9 // over capacity: exercises the priced branch
		}
	}
	ng := testNegotiator(g)
	bi := new(biState)
	s, d := 0, g.cols*g.rows-1
	buf, _ := ng.biSearch(bi, s, d, nil)
	if buf == nil {
		t.Fatal("warm-up search found no path")
	}
	allocs := testing.AllocsPerRun(20, func() {
		p, _ := ng.biSearch(bi, s, d, buf[:0])
		if p == nil {
			t.Fatal("search found no path")
		}
		buf = p
	})
	if allocs != 0 {
		t.Fatalf("warm bidirectional search allocated %.1f times, want 0", allocs)
	}
}

// TestSearchStateReuseMatchesFresh pins pool transparency: a search on a
// reused (dirty) state returns the same path and pop count as a search on
// a fresh one.
func TestSearchStateReuseMatchesFresh(t *testing.T) {
	g := testGrid(30, 25)
	for i := range g.vUsage {
		if i%7 == 2 {
			g.vUsage[i] = 9
		}
	}
	ng := testNegotiator(g)
	dirty := new(biState)
	ng.biSearch(dirty, 3, 600, nil) // dirty the stamps with another search
	for _, pair := range [][2]int{{0, 749}, {29, 720}, {370, 12}} {
		want, wantPops := ng.biSearch(new(biState), pair[0], pair[1], nil)
		got, gotPops := ng.biSearch(dirty, pair[0], pair[1], nil)
		if len(want) != len(got) || wantPops != gotPops {
			t.Fatalf("%v: path len %d, %d pops vs %d, %d", pair, len(got), gotPops, len(want), wantPops)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%v: path[%d] = %d vs %d", pair, i, got[i], want[i])
			}
		}
	}
}
