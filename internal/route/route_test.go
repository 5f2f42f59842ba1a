package route

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/xbar"
)

// gridNetlist lays n unit cells on a k×k grid at the given pitch and wires
// consecutive cells, returning a hand-built placement.
func gridNetlist(n int, pitch float64) (*netlist.Netlist, *place.Result) {
	nl := &netlist.Netlist{}
	k := int(math.Ceil(math.Sqrt(float64(n))))
	pl := &place.Result{X: make([]float64, n), Y: make([]float64, n)}
	for i := 0; i < n; i++ {
		nl.Cells = append(nl.Cells, netlist.Cell{ID: i, Kind: netlist.KindNeuron, W: 1, H: 1})
		pl.X[i] = float64(i%k) * pitch
		pl.Y[i] = float64(i/k) * pitch
		pl.MaxX = math.Max(pl.MaxX, pl.X[i]+0.5)
		pl.MaxY = math.Max(pl.MaxY, pl.Y[i]+0.5)
	}
	pl.MinX, pl.MinY = -0.5, -0.5
	for i := 1; i < n; i++ {
		nl.Wires = append(nl.Wires, netlist.Wire{ID: i - 1, From: i - 1, To: i, Weight: 1})
	}
	return nl, pl
}

func TestRouteEmptyNetlist(t *testing.T) {
	nl := &netlist.Netlist{}
	r, err := Route(nl, &place.Result{}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.Total != 0 || len(r.WireLength) != 0 {
		t.Fatal("empty netlist routed to non-zero length")
	}
}

func TestRouteOptionsValidation(t *testing.T) {
	nl, pl := gridNetlist(4, 3)
	bad := []Options{
		{Theta: 0, Capacity: 4, MaxRelaxations: 4},
		{Theta: 1, Capacity: 0, MaxRelaxations: 4},
		{Theta: 1, Capacity: 4, MaxRelaxations: -1},
		{Theta: 1, Capacity: 4, MaxRelaxations: 4, Workers: -1},
	}
	for i, o := range bad {
		if _, err := Route(nl, pl, o); err == nil {
			t.Errorf("options %d accepted", i)
		}
	}
	huge := *pl
	huge.MaxX = huge.MinX + 2*MaxGridBins
	if _, err := Route(nl, &huge, DefaultOptions()); err == nil {
		t.Error("placement past MaxGridBins accepted")
	}
}

// TestGridDims pins the grid sizing that routing and artifact restore
// share: the box in θ bins, floored at one, plus one per direction, and a
// refusal past MaxGridBins, for a non-finite box, or for θ ≤ 0.
func TestGridDims(t *testing.T) {
	side := math.Sqrt(MaxGridBins) // the cap is a square grid
	for _, tc := range []struct {
		w, h, theta float64
		cols, rows  int
		ok          bool
	}{
		{10, 4, 2, 6, 3, true},
		{0, -3, 2, 2, 2, true}, // floored at one bin
		{2 * (side - 1), 2 * (side - 1), 2, int(side), int(side), true},
		{2 * side, 2 * (side - 1), 2, 0, 0, false},
		{math.Inf(1), 4, 2, 0, 0, false},
		{4, math.NaN(), 2, 0, 0, false},
		{4, 4, 0, 0, 0, false},
		{4, 4, math.NaN(), 0, 0, false},
	} {
		cols, rows, ok := GridDims(tc.w, tc.h, tc.theta)
		if cols != tc.cols || rows != tc.rows || ok != tc.ok {
			t.Errorf("GridDims(%g, %g, %g) = %d, %d, %v; want %d, %d, %v",
				tc.w, tc.h, tc.theta, cols, rows, ok, tc.cols, tc.rows, tc.ok)
		}
	}
}

func TestRouteAllWiresRouted(t *testing.T) {
	nl, pl := gridNetlist(25, 4)
	r, err := Route(nl, pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range r.WireLength {
		if l <= 0 {
			t.Fatalf("wire %d has length %g", i, l)
		}
	}
	if r.Total <= 0 {
		t.Fatal("zero total wirelength")
	}
}

func TestRouteLengthLowerBound(t *testing.T) {
	// A routed wire can never be shorter than ~the bin-quantized Manhattan
	// distance between its pins.
	nl, pl := gridNetlist(16, 6)
	opts := DefaultOptions()
	opts.Theta = 2
	r, err := Route(nl, pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range nl.Wires {
		manhattan := math.Abs(pl.X[w.From]-pl.X[w.To]) + math.Abs(pl.Y[w.From]-pl.Y[w.To])
		if r.WireLength[w.ID] < manhattan-2*opts.Theta {
			t.Fatalf("wire %d routed %g, below Manhattan %g", w.ID, r.WireLength[w.ID], manhattan)
		}
	}
}

func TestRouteSameBinWire(t *testing.T) {
	// Two cells inside one bin: direct connection, no grid edges.
	nl := &netlist.Netlist{
		Cells: []netlist.Cell{
			{ID: 0, Kind: netlist.KindNeuron, W: 1, H: 1},
			{ID: 1, Kind: netlist.KindNeuron, W: 1, H: 1},
		},
		Wires: []netlist.Wire{{ID: 0, From: 0, To: 1, Weight: 1}},
	}
	pl := &place.Result{
		X: []float64{0, 0.5}, Y: []float64{0, 0.5},
		MinX: -0.5, MinY: -0.5, MaxX: 1, MaxY: 1,
	}
	opts := DefaultOptions()
	opts.Theta = 10
	r, err := Route(nl, pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.WireLength[0] <= 0 {
		t.Fatal("same-bin wire has zero length")
	}
	if r.Relaxations != 0 {
		t.Fatal("same-bin wire caused relaxation")
	}
}

func TestRouteCapacityRelaxation(t *testing.T) {
	// Many wires forced through a narrow corridor: capacity 1 must relax.
	nl := &netlist.Netlist{}
	var wires int
	// Two columns of 8 cells; every left cell wired to every right cell.
	pl := &place.Result{}
	for i := 0; i < 16; i++ {
		nl.Cells = append(nl.Cells, netlist.Cell{ID: i, Kind: netlist.KindNeuron, W: 1, H: 1})
		x := 0.0
		if i >= 8 {
			x = 30
		}
		pl.X = append(pl.X, x)
		pl.Y = append(pl.Y, float64(i%8)*2)
	}
	pl.MinX, pl.MinY, pl.MaxX, pl.MaxY = -0.5, -0.5, 30.5, 14.5
	for a := 0; a < 8; a++ {
		for b := 8; b < 16; b++ {
			nl.Wires = append(nl.Wires, netlist.Wire{ID: wires, From: a, To: b, Weight: 1})
			wires++
		}
	}
	opts := DefaultOptions()
	opts.Theta = 4
	opts.Capacity = 1
	r, err := Route(nl, pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Relaxations == 0 {
		t.Fatal("expected capacity relaxations for 64 wires at capacity 1")
	}
	if r.FinalCapacity <= 1 {
		t.Fatalf("final capacity %d, want > 1", r.FinalCapacity)
	}
	for i, l := range r.WireLength {
		if l <= 0 {
			t.Fatalf("wire %d unrouted", i)
		}
	}
}

func TestRouteCongestionMap(t *testing.T) {
	nl, pl := gridNetlist(25, 4)
	r, err := Route(nl, pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.Cols <= 0 || r.Rows <= 0 || len(r.Usage) != r.Cols*r.Rows {
		t.Fatalf("bad congestion map dims %d×%d len %d", r.Cols, r.Rows, len(r.Usage))
	}
	if r.MaxUsage() <= 0 {
		t.Fatal("no congestion recorded for routed wires")
	}
	// Sum of usage ≥ number of routed multi-bin wires.
	sum := 0
	for _, u := range r.Usage {
		sum += u
	}
	if sum < len(nl.Wires) {
		t.Fatalf("usage sum %d below wire count %d", sum, len(nl.Wires))
	}
	// UsageAt indexes consistently.
	total := 0
	for row := 0; row < r.Rows; row++ {
		for col := 0; col < r.Cols; col++ {
			total += r.UsageAt(col, row)
		}
	}
	if total != sum {
		t.Fatal("UsageAt disagrees with Usage")
	}
}

func TestRouteDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cm := graph.RandomSparse(50, 0.9, rng)
	a := xbar.FullCro(cm, xbar.DefaultLibrary())
	nl, err := netlist.Build(a, xbar.Default45nm())
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.Place(nl, place.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Route(nl, pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Route(nl, pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Total != r2.Total {
		t.Fatalf("routing not deterministic: %g vs %g", r1.Total, r2.Total)
	}
}

func TestRouteEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cm := graph.RandomSparse(60, 0.92, rng)
	a := xbar.FullCro(cm, xbar.DefaultLibrary())
	nl, err := netlist.Build(a, xbar.Default45nm())
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.Place(nl, place.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r, err := Route(nl, pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.WireLength) != len(nl.Wires) {
		t.Fatalf("routed %d of %d wires", len(r.WireLength), len(nl.Wires))
	}
	for i, l := range r.WireLength {
		if l <= 0 {
			t.Fatalf("wire %d length %g", i, l)
		}
	}
}

func TestRoutePinsOutsideBoundingBox(t *testing.T) {
	// Pins beyond the declared bounding box must clamp into the grid, not
	// crash or route to phantom bins.
	nl := &netlist.Netlist{
		Cells: []netlist.Cell{
			{ID: 0, Kind: netlist.KindNeuron, W: 1, H: 1},
			{ID: 1, Kind: netlist.KindNeuron, W: 1, H: 1},
		},
		Wires: []netlist.Wire{{ID: 0, From: 0, To: 1, Weight: 1}},
	}
	pl := &place.Result{
		X: []float64{-5, 30}, Y: []float64{-5, 30},
		MinX: 0, MinY: 0, MaxX: 20, MaxY: 20, // box smaller than pin spread
	}
	r, err := Route(nl, pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.WireLength[0] <= 0 {
		t.Fatal("clamped wire unrouted")
	}
}

func TestRouteOptimalOnEmptyGrid(t *testing.T) {
	// With ample capacity and no prior usage, A* must return a shortest
	// path: routed length equals the bin-quantized Manhattan distance.
	nl := &netlist.Netlist{
		Cells: []netlist.Cell{
			{ID: 0, Kind: netlist.KindNeuron, W: 1, H: 1},
			{ID: 1, Kind: netlist.KindNeuron, W: 1, H: 1},
		},
		Wires: []netlist.Wire{{ID: 0, From: 0, To: 1, Weight: 1}},
	}
	pl := &place.Result{
		X: []float64{1, 37}, Y: []float64{1, 25},
		MinX: 0, MinY: 0, MaxX: 40, MaxY: 30,
	}
	opts := DefaultOptions()
	opts.Theta = 2
	opts.Capacity = 100
	r, err := Route(nl, pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Bin distance: |bin(37)-bin(1)| + |bin(25)-bin(1)| = 18 + 12 = 30
	// edges of θ=2 µm each.
	want := 30 * opts.Theta
	if math.Abs(r.WireLength[0]-want) > 1e-9 {
		t.Fatalf("routed %g µm, want shortest path %g", r.WireLength[0], want)
	}
}
