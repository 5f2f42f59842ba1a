package place

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/xbar"
)

// chainNetlist builds n unit cells connected in a chain.
func chainNetlist(n int) *netlist.Netlist {
	nl := &netlist.Netlist{NeuronCell: map[int]int{}}
	for i := 0; i < n; i++ {
		nl.Cells = append(nl.Cells, netlist.Cell{ID: i, Kind: netlist.KindNeuron, W: 1, H: 1})
	}
	for i := 1; i < n; i++ {
		nl.Wires = append(nl.Wires, netlist.Wire{ID: i - 1, From: i - 1, To: i, Weight: 1})
	}
	return nl
}

func TestPlaceEmptyNetlist(t *testing.T) {
	r, err := Place(&netlist.Netlist{}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.X) != 0 {
		t.Fatal("empty netlist produced positions")
	}
}

func TestPlaceSingleCell(t *testing.T) {
	nl := chainNetlist(1)
	r, err := Place(nl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.Area() != 1 {
		t.Fatalf("single unit cell area = %g, want 1", r.Area())
	}
}

func TestPlaceChainNoOverlap(t *testing.T) {
	nl := chainNetlist(25)
	r, err := Place(nl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ov := TotalOverlap(nl, r); ov > 1e-6 {
		t.Fatalf("legalized overlap = %g", ov)
	}
	if r.HPWL <= 0 {
		t.Fatal("zero HPWL for a connected chain")
	}
}

func TestPlaceOptionsValidation(t *testing.T) {
	nl := chainNetlist(3)
	bad := []Options{
		{Gamma: 0, Omega: 1.5, OverlapThreshold: 0.01, MaxOuter: 5, CGIterations: 10},
		{Gamma: 1, Omega: 0.5, OverlapThreshold: 0.01, MaxOuter: 5, CGIterations: 10},
		{Gamma: 1, Omega: 1.5, OverlapThreshold: -1, MaxOuter: 5, CGIterations: 10},
		{Gamma: 1, Omega: 1.5, OverlapThreshold: 0.01, MaxOuter: 0, CGIterations: 10},
	}
	for i, o := range bad {
		if _, err := Place(nl, o); err == nil {
			t.Errorf("options %d accepted", i)
		}
	}
}

func TestPlaceKeepsConnectedCellsClose(t *testing.T) {
	// Two 4-cliques joined by one wire: intra-clique distances must be
	// below the inter-clique distance on average.
	nl := &netlist.Netlist{}
	for i := 0; i < 8; i++ {
		nl.Cells = append(nl.Cells, netlist.Cell{ID: i, Kind: netlist.KindNeuron, W: 1, H: 1})
	}
	wid := 0
	addWire := func(a, b int) {
		nl.Wires = append(nl.Wires, netlist.Wire{ID: wid, From: a, To: b, Weight: 1})
		wid++
	}
	for _, base := range []int{0, 4} {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				addWire(base+i, base+j)
			}
		}
	}
	addWire(0, 4)
	r, err := Place(nl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mean := func(ids []int) (float64, float64) {
		x, y := 0.0, 0.0
		for _, i := range ids {
			x += r.X[i]
			y += r.Y[i]
		}
		return x / float64(len(ids)), y / float64(len(ids))
	}
	x0, y0 := mean([]int{0, 1, 2, 3})
	x1, y1 := mean([]int{4, 5, 6, 7})
	interDist := math.Hypot(x0-x1, y0-y1)
	intra := 0.0
	for i := 0; i < 4; i++ {
		intra += math.Hypot(r.X[i]-x0, r.Y[i]-y0)
		intra += math.Hypot(r.X[4+i]-x1, r.Y[4+i]-y1)
	}
	intra /= 8
	if intra > interDist {
		t.Fatalf("cliques not separated: intra %.2f vs inter %.2f", intra, interDist)
	}
}

func TestPlaceWireWeightPullsCellsCloser(t *testing.T) {
	// A heavy wire should end up shorter than a unit wire in an otherwise
	// symmetric star.
	build := func(heavy float64) *netlist.Netlist {
		nl := &netlist.Netlist{}
		for i := 0; i < 6; i++ {
			nl.Cells = append(nl.Cells, netlist.Cell{ID: i, Kind: netlist.KindNeuron, W: 1, H: 1})
		}
		// Cells 1..5 all wired to hub 0; wire to cell 1 is heavy.
		for i := 1; i < 6; i++ {
			w := 1.0
			if i == 1 {
				w = heavy
			}
			nl.Wires = append(nl.Wires, netlist.Wire{ID: i - 1, From: 0, To: i, Weight: w})
		}
		return nl
	}
	nl := build(8)
	r, err := Place(nl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	heavyLen := math.Abs(r.X[0]-r.X[1]) + math.Abs(r.Y[0]-r.Y[1])
	sumOther := 0.0
	for i := 2; i < 6; i++ {
		sumOther += math.Abs(r.X[0]-r.X[i]) + math.Abs(r.Y[0]-r.Y[i])
	}
	if heavyLen > sumOther/4+1e-9 {
		t.Fatalf("heavy wire %.3f not shorter than average other %.3f", heavyLen, sumOther/4)
	}
}

func TestPlaceRealisticAssignment(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cm := graph.RandomSparse(60, 0.9, rng)
	a := xbar.FullCro(cm, xbar.DefaultLibrary())
	nl, err := netlist.Build(a, xbar.Default45nm())
	if err != nil {
		t.Fatal(err)
	}
	r, err := Place(nl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ov := TotalOverlap(nl, r); ov > 1e-6 {
		t.Fatalf("overlap %g after legalization", ov)
	}
	// Bounding box must at least fit the total cell area.
	if r.Area() < nl.TotalCellArea() {
		t.Fatalf("area %.1f below total cell area %.1f", r.Area(), nl.TotalCellArea())
	}
	// And not be absurdly inflated (sanity on the optimizer/legalizer).
	if r.Area() > 60*nl.TotalCellArea() {
		t.Fatalf("area %.1f is %.0f× the cell area", r.Area(), r.Area()/nl.TotalCellArea())
	}
}

func TestPlacementReducesWirelengthVsInitialGrid(t *testing.T) {
	// Optimized placement must beat the naive initial grid on HPWL for a
	// structured netlist.
	rng := rand.New(rand.NewSource(3))
	cm := graph.RandomClustered(60, 15, 0.6, 0.01, rng)
	a := xbar.FullCro(cm, xbar.DefaultLibrary())
	nl, err := netlist.Build(a, xbar.Default45nm())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	r, err := Place(nl, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Recreate the initial grid (legalized trivially, grid has no overlap
	// only if pitch ≥ cell sizes; compare on raw HPWL of the grid).
	p := newProblem(nl, opts)
	p.initialGrid()
	gridHPWL := 0.0
	for _, w := range nl.Wires {
		gridHPWL += w.Weight * (math.Abs(p.pos[w.From]-p.pos[w.To]) +
			math.Abs(p.pos[p.n+w.From]-p.pos[p.n+w.To]))
	}
	if r.HPWL >= gridHPWL {
		t.Fatalf("optimized HPWL %.1f not below initial grid %.1f", r.HPWL, gridHPWL)
	}
}

func TestWASpanApproximatesAbs(t *testing.T) {
	gamma := 2.0
	for _, d := range []float64{0, 0.5, 1, 5, 20, 100, -7, -50} {
		got := waSpan2(d, 0, gamma)
		if math.Abs(d) > 10*gamma {
			if math.Abs(got-math.Abs(d)) > 0.01*math.Abs(d) {
				t.Errorf("waSpan2(%g) = %g, want ≈|d|", d, got)
			}
		}
		if got < 0 {
			t.Errorf("waSpan2(%g) = %g < 0", d, got)
		}
		if got > math.Abs(d)+1e-12 {
			t.Errorf("waSpan2(%g) = %g exceeds |d|", d, got)
		}
	}
}

func TestWASpanGradientMatchesFiniteDifference(t *testing.T) {
	gamma := 2.0
	for _, d := range []float64{0, 0.3, 1, 4, -2, -9} {
		h := 1e-6
		fd := (waSpan2(d+h, 0, gamma) - waSpan2(d-h, 0, gamma)) / (2 * h)
		an := waSpan2Grad(d, 0, gamma)
		if math.Abs(fd-an) > 1e-5 {
			t.Errorf("grad mismatch at %g: fd %g vs analytic %g", d, fd, an)
		}
	}
}

func TestAxisOverlap(t *testing.T) {
	// Interval [1,3] (c=2, w=2) against bin [0,4]: fully inside.
	if ov, _ := axisOverlap(2, 2, 0, 4); math.Abs(ov-2) > 1e-12 {
		t.Errorf("inside overlap = %g, want 2", ov)
	}
	// Sticking out on the right: overlap shrinks as c grows.
	ov, g := axisOverlap(3.5, 2, 0, 4)
	if math.Abs(ov-1.5) > 1e-12 || g != -1 {
		t.Errorf("right-overhang = %g grad %g, want 1.5, -1", ov, g)
	}
	// Sticking out on the left: overlap grows as c grows.
	ov, g = axisOverlap(0.5, 2, 0, 4)
	if math.Abs(ov-1.5) > 1e-12 || g != 1 {
		t.Errorf("left-overhang = %g grad %g, want 1.5, +1", ov, g)
	}
	// Disjoint.
	if ov, g := axisOverlap(10, 2, 0, 4); ov != 0 || g != 0 {
		t.Errorf("disjoint = %g grad %g, want 0, 0", ov, g)
	}
	// Gradient matches finite differences away from kinks.
	for _, c := range []float64{0.3, 1.7, 2.2, 3.6, 4.7} {
		h := 1e-6
		fp, _ := axisOverlap(c+h, 2, 0, 4)
		fm, _ := axisOverlap(c-h, 2, 0, 4)
		fd := (fp - fm) / (2 * h)
		_, an := axisOverlap(c, 2, 0, 4)
		if math.Abs(fd-an) > 1e-5 {
			t.Errorf("axisOverlap grad at %g = %g, fd %g", c, an, fd)
		}
	}
}

func TestWirelengthGradMatchesFiniteDifference(t *testing.T) {
	nl := chainNetlist(6)
	opts := DefaultOptions()
	p := newProblem(nl, opts)
	rng := rand.New(rand.NewSource(4))
	for i := range p.pos {
		p.pos[i] = rng.Float64() * 10
	}
	grad := make([]float64, len(p.pos))
	p.wirelengthGrad(p.pos, grad)
	h := 1e-6
	for i := range p.pos {
		orig := p.pos[i]
		p.pos[i] = orig + h
		fp := p.wirelength(p.pos)
		p.pos[i] = orig - h
		fm := p.wirelength(p.pos)
		p.pos[i] = orig
		fd := (fp - fm) / (2 * h)
		if math.Abs(fd-grad[i]) > 1e-4 {
			t.Fatalf("WL grad[%d] = %g, fd %g", i, grad[i], fd)
		}
	}
}

func TestDensityGradMatchesFiniteDifference(t *testing.T) {
	nl := chainNetlist(5)
	opts := DefaultOptions()
	p := newProblem(nl, opts)
	rng := rand.New(rand.NewSource(5))
	for i := range p.pos {
		p.pos[i] = rng.Float64() * 3 // cramped: overfull bins guaranteed
	}
	p.setupRegion()
	grad := make([]float64, len(p.pos))
	p.densityGrad(p.pos, grad)
	h := 1e-6
	for i := range p.pos {
		orig := p.pos[i]
		p.pos[i] = orig + h
		fp := p.density(p.pos)
		p.pos[i] = orig - h
		fm := p.density(p.pos)
		p.pos[i] = orig
		fd := (fp - fm) / (2 * h)
		// The density field is piecewise smooth; points at bin boundaries
		// may sit on a kink, so allow a slightly looser tolerance.
		if math.Abs(fd-grad[i]) > 1e-3*(1+math.Abs(fd)) {
			t.Fatalf("D grad[%d] = %g, fd %g", i, grad[i], fd)
		}
	}
}

func TestDensityPenalizesPiling(t *testing.T) {
	// Under the electrostatic field, cells piled at one point sit at the
	// potential peak, so the spreading cost must exceed that of the legal
	// shelf-packed start.
	nl := chainNetlist(16)
	p := newProblem(nl, DefaultOptions())
	p.initialGrid()
	p.setupRegion()
	p.solveField(p.pos)
	spread := p.density(p.pos)
	for i := 0; i < p.n; i++ {
		p.pos[i] = p.regX0 + p.regSize/2
		p.pos[p.n+i] = p.regY0 + p.regSize/2
	}
	p.solveField(p.pos)
	piled := p.density(p.pos)
	if piled <= spread {
		t.Fatalf("piled density %g not above spread density %g", piled, spread)
	}
}

func TestFieldForcePushesOutOfPile(t *testing.T) {
	// A cell just off-center of a pile must feel a force away from it.
	nl := chainNetlist(10)
	p := newProblem(nl, DefaultOptions())
	p.initialGrid()
	p.setupRegion()
	cx := p.regX0 + p.regSize/2
	cy := p.regY0 + p.regSize/2
	for i := 0; i < p.n; i++ {
		p.pos[i], p.pos[p.n+i] = cx, cy
	}
	// Cell 0 slightly to the right of the pile.
	p.pos[0] = cx + p.binSize
	p.solveField(p.pos)
	grad := make([]float64, 2*p.n)
	p.densityGrad(p.pos, grad)
	// Descent direction is -grad; the cell must be pushed further right.
	if -grad[0] <= 0 {
		t.Fatalf("field pushes cell toward the pile: grad %g", grad[0])
	}
}

func TestOverlap1D(t *testing.T) {
	if got := overlap1D(0, 2, 1, 2); math.Abs(got-1) > 1e-12 {
		t.Errorf("overlap1D = %g, want 1", got)
	}
	if got := overlap1D(0, 2, 5, 2); got > 0 {
		t.Errorf("disjoint segments overlap %g", got)
	}
}

func TestLegalizeDeterministic(t *testing.T) {
	nl := chainNetlist(20)
	a, err := Place(nl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Place(nl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.X {
		if a.X[i] != b.X[i] || a.Y[i] != b.Y[i] {
			t.Fatal("placement not deterministic")
		}
	}
}

// TestPlaceStallStop pins the λ loop's stall stop: at default options the
// loop ends exactly stallRounds·CGIterations steps after the last
// checkpoint that improved the kept snapshot, inside the MaxOuter budget.
func TestPlaceStallStop(t *testing.T) {
	nl := clusteredNetlist(t)
	rec := &recordingObserver{}
	opts := DefaultOptions()
	opts.Observer = rec
	r, err := Place(nl, opts)
	if err != nil {
		t.Fatal(err)
	}
	var last obs.PlaceProgress
	bestStep := 0
	bestHPWL, bestOverlap := 0.0, 0.0
	for _, e := range rec.events {
		ev, ok := e.(obs.PlaceProgress)
		if !ok {
			continue
		}
		if ev.BestHPWL != bestHPWL || ev.BestOverlap != bestOverlap {
			bestHPWL, bestOverlap, bestStep = ev.BestHPWL, ev.BestOverlap, ev.Step
		}
		last = ev
	}
	if got, want := last.Step-bestStep, stallRounds*opts.CGIterations; got != want {
		t.Fatalf("last checkpoint at step %d, %d steps after the last improvement at step %d; want %d",
			last.Step, got, bestStep, want)
	}
	if r.Outer >= opts.MaxOuter {
		t.Fatalf("ran %d of %d λ rounds; the stall stop never fired", r.Outer, opts.MaxOuter)
	}
}

// scanOverlaps is the linear scan the overlap index replaced, kept as its
// reference: does cell i at (x, y) overlap any cell j ≠ i with in[j] by
// more than the 1e-6 clearance on both axes?
func scanOverlaps(p *problem, in []bool, i int, x, y float64) bool {
	const clearance = 1e-6
	for j := 0; j < p.n; j++ {
		if !in[j] || j == i {
			continue
		}
		if overlap1D(x, p.pw[i], p.pos[j], p.pw[j]) > clearance &&
			overlap1D(y, p.ph[i], p.pos[p.n+j], p.ph[j]) > clearance {
			return true
		}
	}
	return false
}

// TestPlaceOverlapIndexMatchesScan checks the overlap index against the
// linear scan on random mixed-size layouts: cells centred on bucket edges,
// query points abutting an indexed cell within and just beyond the
// clearance, the legalizer's far-away fallback coordinates, and cells
// re-indexed after moves.
func TestPlaceOverlapIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sizes := [][2]float64{{1, 1}, {2.2, 2.2}, {9.76, 9.76}, {4.5, 3}, {0.4, 7}}
	for layout := 0; layout < 20; layout++ {
		n := 60 + rng.Intn(200)
		nl := &netlist.Netlist{}
		for i := 0; i < n; i++ {
			s := sizes[rng.Intn(len(sizes))]
			nl.Cells = append(nl.Cells, netlist.Cell{ID: i, Kind: netlist.KindNeuron, W: s[0], H: s[1]})
		}
		p := newProblem(nl, DefaultOptions())
		side := p.maxPExt
		step := p.meanStep() / 2
		extent := 8 * side * (0.5 + rng.Float64())
		for i := 0; i < n; i++ {
			x, y := extent*(rng.Float64()-0.5), extent*(rng.Float64()-0.5)
			switch rng.Intn(6) {
			case 0: // centre exactly on a bucket edge
				x = side * math.Round(x/side)
			case 1: // centre one ulp either side of a bucket edge
				x = math.Nextafter(side*math.Round(x/side), x)
				y = math.Nextafter(side*math.Round(y/side), -y)
			case 2: // the legalizer's far-away fallback slot
				x += 1200 * step
			}
			p.pos[i], p.pos[p.n+i] = x, y
		}
		in := make([]bool, n)
		ix := p.newOverlapIndex()
		for i := 0; i < n; i++ {
			if rng.Intn(4) != 0 {
				in[i] = true
				ix.add(i)
			}
		}
		hits, misses := 0, 0
		check := func(i int, x, y float64) {
			t.Helper()
			want := scanOverlaps(p, in, i, x, y)
			if got := ix.overlaps(i, x, y); got != want {
				t.Fatalf("layout %d: cell %d at (%.17g, %.17g): index says %v, scan %v", layout, i, x, y, got, want)
			}
			if want {
				hits++
			} else {
				misses++
			}
		}
		for q := 0; q < 400; q++ {
			i, j := rng.Intn(n), rng.Intn(n)
			// A random point, and the cell's own position.
			check(i, extent*(rng.Float64()-0.5), extent*(rng.Float64()-0.5))
			check(i, p.pos[i], p.pos[p.n+i])
			// Abutting cell j from the right and from below, overlapping by
			// just under, exactly and just over the clearance.
			for _, ov := range []float64{0, 0.5e-6, 1e-6, 1.5e-6, 3e-6, 0.25} {
				check(i, p.pos[j]+(p.pw[i]+p.pw[j])/2-ov, p.pos[p.n+j])
				check(i, p.pos[j], p.pos[p.n+j]-(p.ph[i]+p.ph[j])/2+ov)
			}
			// The fallback slot of a cell that found no free spiral position.
			check(i, p.pos[j]+1200*step, p.pos[p.n+j])
		}
		// Move indexed cells, some across buckets, and query again.
		for m := 0; m < n; m++ {
			i := rng.Intn(n)
			if !in[i] {
				continue
			}
			p.pos[i] += side * (rng.Float64()*4 - 2)
			p.pos[p.n+i] += side * (rng.Float64()*4 - 2)
			ix.move(i)
			j := rng.Intn(n)
			check(j, p.pos[i]+(p.pw[i]+p.pw[j])/2-2e-6, p.pos[p.n+i])
			check(j, p.pos[j], p.pos[p.n+j])
		}
		if hits == 0 || misses == 0 {
			t.Fatalf("layout %d: %d hits and %d misses; the comparison is vacuous", layout, hits, misses)
		}
	}
}
