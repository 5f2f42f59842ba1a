// Package place implements the customized analytical placement of
// Section 3.5: the weighted-average (WA) smooth wirelength model (Eq. 1)
// with user-defined wire weights, a density spreading force inside the
// λ-escalation penalty loop of Algorithm 4, routing-space reservation
// through the virtual cell width ω (refined with a per-pin reserve), a
// spiral legalizer for the remaining overlap (cells are mixed-size and are
// not required to align into rows), and centroid/swap detailed placement.
//
// The density model deviates deliberately from the paper's pairwise
// sigmoid-overlap form: spreading uses the electrostatic potential-field
// formulation (bin densities → Poisson-solved potential → per-cell force),
// which preserves relative cell order where pairwise repulsion does not.
// The initial "regular location" is connectivity-aware: crossbar groups
// are packed as compact tiles and arranged by a 2-D spectral embedding of
// the tile adjacency. Both deviations, and the measurements motivating
// them, are documented in DESIGN.md §3b.
package place

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/matrix"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// Options tunes the placer. The zero value is invalid; use DefaultOptions.
type Options struct {
	// Gamma is the WA wirelength smoothing parameter γ in µm.
	Gamma float64
	// Omega is the virtual-width factor ω: during global placement every
	// cell occupies Omega × its physical width/height, reserving space for
	// routing (Section 3.5).
	Omega float64
	// RouteReserve is the extra virtual width (µm) a cell reserves per
	// wire endpoint (pin) on it, refining ω: a max-size crossbar with
	// 100+ wires needs far more escape/routing space around it than a
	// two-pin synapse, which is exactly the congestion mechanism that
	// inflates the FullCro baseline's die in the paper's Figure 10.
	RouteReserve float64
	// OverlapThreshold stops the λ loop when the total pairwise physical
	// overlap area falls below this fraction of the total cell area.
	OverlapThreshold float64
	// MaxOuter bounds the λ-doubling iterations.
	MaxOuter int
	// CGIterations bounds the conjugate-gradient steps per λ round.
	CGIterations int
	// Workers bounds the goroutines running the placement kernels (field
	// relaxation, gradient evaluation, bin and overlap accumulation). Zero
	// means the parallel package default; negative is invalid. The placed
	// result is bit-identical for every worker count.
	Workers int
	// Observer, when non-nil, receives an obs.PlaceProgress event at every
	// overlap checkpoint of the λ loop (several per outer round) and one
	// obs.PlaceStats summary after detailed placement. Observers are
	// passive: the values they see are the ones the loop computes for
	// its own convergence check, so attaching one never changes the
	// placement.
	Observer obs.Observer
}

// DefaultOptions returns the parameter set used by the experiments.
func DefaultOptions() Options {
	return Options{
		Gamma:            2.0,
		Omega:            1.6,
		RouteReserve:     0.03,
		OverlapThreshold: 0.01,
		MaxOuter:         18,
		CGIterations:     120,
	}
}

func (o Options) validate() error {
	if o.Gamma <= 0 {
		return fmt.Errorf("place: gamma %g must be positive", o.Gamma)
	}
	if o.Omega < 1 {
		return fmt.Errorf("place: omega %g must be ≥ 1", o.Omega)
	}
	if o.RouteReserve < 0 {
		return fmt.Errorf("place: route reserve %g must be ≥ 0", o.RouteReserve)
	}
	if o.OverlapThreshold < 0 {
		return fmt.Errorf("place: overlap threshold %g must be ≥ 0", o.OverlapThreshold)
	}
	if o.MaxOuter <= 0 || o.CGIterations <= 0 {
		return fmt.Errorf("place: iteration limits must be positive")
	}
	if o.Workers < 0 {
		return fmt.Errorf("place: workers %d must be ≥ 0", o.Workers)
	}
	return nil
}

// Result is a legalized placement. Detailed placement, which
// obs.PlaceStats.DetailTime times, covers legalization, refinement and the
// swap pass.
type Result struct {
	// X, Y are the cell center coordinates, indexed by cell ID.
	X, Y []float64
	// MinX, MinY, MaxX, MaxY is the physical bounding box of all cells.
	MinX, MinY, MaxX, MaxY float64
	// HPWL is the weighted half-perimeter wirelength of the final
	// placement in µm.
	HPWL float64
	// InitialHPWL and GlobalHPWL record the weighted HPWL at the initial
	// grid and after global optimization (before legalization), for
	// diagnosing optimizer and legalizer quality.
	InitialHPWL, GlobalHPWL float64
	// Outer is the number of λ rounds performed (a partial round counts
	// as one).
	Outer int
	// FieldSolves, VCycles and FieldSweeps count the Poisson field work of
	// the global phase: field refreshes (one per optimizer step), multigrid
	// V-cycles across all refreshes, and red-black relaxation sweeps summed
	// over every multigrid level. All three are deterministic for any
	// worker count.
	FieldSolves, VCycles, FieldSweeps int
	// SwapCandidates and SwapsAccepted count the swap pass's pairs
	// evaluated and position swaps taken.
	SwapCandidates, SwapsAccepted int
}

// Width returns the bounding-box width.
func (r *Result) Width() float64 { return r.MaxX - r.MinX }

// Height returns the bounding-box height.
func (r *Result) Height() float64 { return r.MaxY - r.MinY }

// Area returns the placement (bounding-box) area in µm².
func (r *Result) Area() float64 { return r.Width() * r.Height() }

// Place runs Algorithm 4 on the netlist and returns a legalized placement.
func Place(nl *netlist.Netlist, opts Options) (*Result, error) {
	return PlaceCtx(context.Background(), nl, opts)
}

// stallRounds ends the λ loop, beside the overlap stop, once the snapshot
// it will restore has gone this many λ rounds (stallRounds·CGIterations
// steps) without improving. λ only grows, so past the sweet spot the
// spreading keeps trading wirelength for overlap and every later snapshot
// is discarded. On the benchmark's designs the kept snapshot came from the
// first 260 steps and no two improvements were more than 160 steps apart,
// so the stop leaves those placements bit-identical.
const stallRounds = 3

// PlaceCtx is Place under a context: cancellation is checked at every
// overlap checkpoint of the λ loop and once more before legalization, so a
// cancel returns a wrapped ctx.Err() well within one outer λ round. An
// uncancelled PlaceCtx is bit-identical to Place.
func PlaceCtx(ctx context.Context, nl *netlist.Netlist, opts Options) (*Result, error) {
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
	p := newProblem(nl, opts)
	p.ctx = ctx
	p.initialGrid()
	p.setupRegion()
	initialHPWL := p.weightedHPWL()

	if len(nl.Wires) > 0 && n > 1 {
		// λ₀ = Σ|∂WL| / Σ|∂D| (Algorithm 4 line 1), scaled down so the
		// early iterations are wirelength-dominant (cells pull into their
		// connectivity structure); λ then grows geometrically — doubling
		// every CGIterations steps, the within-round/doubling structure of
		// the paper's Algorithm 4 — until the physical overlap falls under
		// the threshold or the best snapshot stalls for stallRounds rounds.
		// The spreading field is re-solved every iteration and steps are
		// movement-capped, which keeps the nonconvex descent stable (see
		// step).
		if err := p.solveField(p.pos); err != nil {
			return nil, fmt.Errorf("place: cancelled in λ round 0: %w", err)
		}
		ratio, err := p.gradRatioAt(p.pos)
		if err != nil {
			return nil, fmt.Errorf("place: cancelled in λ round 0: %w", err)
		}
		lambda := 0.05 * ratio
		growth := math.Pow(2, 1/float64(opts.CGIterations))
		checkEvery := 20
		budget := opts.MaxOuter * opts.CGIterations
		// Track the best visited state: the λ schedule keeps spreading
		// after the sweet spot, so the loop remembers the snapshot with
		// the best legalization-aware quality (HPWL inflated by the
		// relative remaining overlap) and restores it at the end.
		best := append([]float64(nil), p.pos...)
		bestProxy := math.Inf(1)
		bestHPWL, bestOverlap := 0.0, 0.0
		bestIter := 0
		for iter := 0; iter < budget; iter++ {
			// The λ this step runs under; the checkpoint below reports it
			// (the growth update happens after, for the next step).
			stepLambda := lambda
			round := iter / opts.CGIterations
			if err := p.step(stepLambda); err != nil {
				return nil, fmt.Errorf("place: cancelled in λ round %d: %w", round, err)
			}
			lambda *= growth
			if iter%checkEvery == checkEvery-1 {
				// Rounds performed so far: the partial round this step
				// belongs to counts as one.
				p.outer = round + 1
				if err := ctx.Err(); err != nil {
					return nil, fmt.Errorf("place: cancelled in λ round %d: %w", round, err)
				}
				ov, err := p.physicalOverlap(p.pos)
				if err != nil {
					return nil, fmt.Errorf("place: cancelled in λ round %d: %w", round, err)
				}
				hpwl := p.weightedHPWL()
				proxy := hpwl * (1 + ov/p.totalArea)
				if proxy < bestProxy {
					bestProxy = proxy
					bestHPWL, bestOverlap = hpwl, ov
					bestIter = iter
					copy(best, p.pos)
				}
				obs.Emit(opts.Observer, obs.PlaceProgress{
					Outer:       round,
					Step:        iter + 1,
					Lambda:      stepLambda,
					HPWL:        hpwl,
					Overlap:     ov,
					BestHPWL:    bestHPWL,
					BestOverlap: bestOverlap,
				})
				if ov <= opts.OverlapThreshold*p.totalArea ||
					iter-bestIter >= stallRounds*opts.CGIterations {
					break
				}
			}
		}
		copy(p.pos, best)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("place: cancelled before legalization: %w", err)
	}
	globalHPWL := p.weightedHPWL()
	detailStart := time.Now()
	p.legalize()
	if err := p.swapRefine(); err != nil {
		return nil, fmt.Errorf("place: cancelled in detailed placement: %w", err)
	}
	p.detailTime = time.Since(detailStart)
	obs.Emit(opts.Observer, obs.PlaceStats{
		Outer:          p.outer,
		FieldSolves:    p.fieldSolves,
		VCycles:        p.vcycles,
		FieldSweeps:    p.fieldSweeps,
		SwapCandidates: p.swapCandidates,
		SwapsAccepted:  p.swapsAccepted,
		FieldTime:      p.fieldTime,
		DetailTime:     p.detailTime,
	})
	r := p.result()
	r.InitialHPWL, r.GlobalHPWL = initialHPWL, globalHPWL
	return r, nil
}

// weightedHPWL evaluates the exact (non-smooth) weighted HPWL at the
// current positions.
func (p *problem) weightedHPWL() float64 {
	total := 0.0
	for _, w := range p.nl.Wires {
		total += w.Weight * (math.Abs(p.pos[w.From]-p.pos[w.To]) +
			math.Abs(p.pos[p.n+w.From]-p.pos[p.n+w.To]))
	}
	return total
}

// gradRatioAt evaluates λ = Σ|∂WL|/Σ|∂D| at pos, guarding against a
// (near-)zero density gradient: when the placement is essentially
// overlap-free the ratio is meaningless and 1 is returned. The step
// workspace is borrowed for the two gradients (callers invoke this before
// the first step).
func (p *problem) gradRatioAt(pos []float64) (float64, error) {
	gw, gd := p.stepGrad, p.stepScratch
	if err := p.wirelengthGrad(pos, gw); err != nil {
		return 0, err
	}
	if err := p.densityGrad(pos, gd); err != nil {
		return 0, err
	}
	sw, sd := 0.0, 0.0
	for i := range gw {
		sw += math.Abs(gw[i])
		sd += math.Abs(gd[i])
	}
	if sd <= 1e-9*sw || sd == 0 {
		return 1, nil
	}
	l := sw / sd
	if l <= 0 || math.IsNaN(l) || math.IsInf(l, 0) {
		return 1, nil
	}
	return l, nil
}

// problem carries the optimization state. Positions are packed as
// [x0..xn-1, y0..yn-1].
//
// Everything the inner loop touches repeatedly lives in a reusable
// workspace allocated up front (newProblem/setupRegion): multigrid levels,
// per-chunk bin buffers, incidence lists, the optimizer vectors, and the
// overlap bucket store. The hot kernels are prebuilt method values
// (relaxRowFn & co.) because parallel.ForCtx stores its fn, so a literal
// closure at each call site would heap-allocate per sweep.
type problem struct {
	nl        *netlist.Netlist
	opts      Options
	ctx       context.Context
	workers   int
	n         int
	pos       []float64
	vw, vh    []float64 // virtual dims (physical × ω)
	pw, ph    []float64 // physical dims
	totalArea float64
	maxPExt   float64 // largest physical extent, the overlap bucket size
	outer     int
	// Incidence CSR: incWire[incStart[i]:incStart[i+1]] are the wire
	// indices touching cell i, in ascending wire order. Built once; shared
	// by the parallel wirelength gradient and detailed placement.
	incStart, incWire []int
	// Density-field geometry (fixed after initialGrid): a square placement
	// region split into grid×grid bins.
	regX0, regY0 float64
	regSize      float64
	grid         int
	binSize      float64
	binArea      float64
	binAcc       []float64 // scratch: per-bin accumulated virtual area
	// Electrostatic spreading potential ψ, refreshed every step from the
	// bin densities by a multigrid Poisson solve. psi aliases levels[0].psi.
	psi    []float64
	levels []fieldLevel
	// Fixed-decomposition scatter buffers for accumulateBins: cell chunk c
	// deposits into binChunks[c], and the per-bin combine walks chunks in
	// fixed order, so the density is bit-identical for any worker count.
	binChunks [][]float64
	binChunk  int // cells per chunk; depends only on n
	// Optimizer state.
	stepGrad, stepPrevG, stepDir, stepScratch []float64
	// Sorted spatial-bucket store shared by physicalOverlap and the
	// detailed-placement candidate generator (never live at once).
	ovSorter    bucketSorter
	ovStart     []int
	ovBKey      []uint64
	ovPart      []float64
	ovIDScratch []int
	// cellWL[i] caches cell i's incident weighted wirelength during
	// detailed placement, updated incrementally on accepted swaps.
	cellWL []float64
	// Current kernel arguments and prebuilt kernel method values (see the
	// struct comment).
	kPos, kGrad  []float64
	relaxLv      *fieldLevel
	relaxColor   int
	wgX, wgY     []float64 // per-wire span gradients (∂span/∂From)
	relaxRowFn   func(int)
	residRowFn   func(int)
	wireGradFn   func(int)
	wlGradFn     func(int)
	denGradFn    func(int)
	binScatterFn func(int)
	binReduceFn  func(int)
	// Kernel statistics for obs.PlaceStats and the Result counters.
	fieldSolves, vcycles, fieldSweeps int
	swapCandidates, swapsAccepted     int
	fieldTime, detailTime             time.Duration
}

func newProblem(nl *netlist.Netlist, opts Options) *problem {
	n := len(nl.Cells)
	p := &problem{
		nl:   nl,
		opts: opts,
		ctx:  context.Background(),
		n:    n,
		pos:  make([]float64, 2*n),
		vw:   make([]float64, n),
		vh:   make([]float64, n),
		pw:   make([]float64, n),
		ph:   make([]float64, n),
	}
	p.workers = opts.Workers
	pins := make([]int, n)
	for _, w := range nl.Wires {
		pins[w.From]++
		pins[w.To]++
	}
	for i, c := range nl.Cells {
		p.pw[i], p.ph[i] = c.W, c.H
		reserve := opts.RouteReserve * float64(pins[i])
		p.vw[i] = c.W*opts.Omega + reserve
		p.vh[i] = c.H*opts.Omega + reserve
		p.totalArea += c.Area()
		p.maxPExt = math.Max(p.maxPExt, math.Max(c.W, c.H))
	}
	// Incidence CSR (counts → prefix sums → fill in wire order).
	p.incStart = make([]int, n+1)
	for _, w := range nl.Wires {
		p.incStart[w.From+1]++
		p.incStart[w.To+1]++
	}
	for i := 0; i < n; i++ {
		p.incStart[i+1] += p.incStart[i]
	}
	p.incWire = make([]int, 2*len(nl.Wires))
	fill := pins // reuse as per-cell fill cursor
	for i := range fill {
		fill[i] = 0
	}
	for wi, w := range nl.Wires {
		p.incWire[p.incStart[w.From]+fill[w.From]] = wi
		fill[w.From]++
		p.incWire[p.incStart[w.To]+fill[w.To]] = wi
		fill[w.To]++
	}
	p.stepGrad = make([]float64, 2*n)
	p.stepPrevG = make([]float64, 2*n)
	p.stepDir = make([]float64, 2*n)
	p.stepScratch = make([]float64, 2*n)
	p.ovSorter.keys = make([]uint64, n)
	p.ovSorter.ids = make([]int, n)
	p.cellWL = make([]float64, n)
	p.wgX = make([]float64, len(nl.Wires))
	p.wgY = make([]float64, len(nl.Wires))
	p.relaxRowFn = p.relaxRow
	p.residRowFn = p.residRow
	p.wireGradFn = p.wireGrad
	p.wlGradFn = p.wlGradCell
	p.denGradFn = p.denGradCell
	p.binScatterFn = p.binScatter
	p.binReduceFn = p.binReduce
	return p
}

// setupRegion fixes the density region around the current placement: a
// square with a small margin over the total virtual area, centered at the
// current centroid. Bin count scales with √n.
func (p *problem) setupRegion() {
	totalV := 0.0
	for i := 0; i < p.n; i++ {
		totalV += p.vw[i] * p.vh[i]
	}
	p.regSize = 1.12 * math.Sqrt(totalV)
	cx, cy := 0.0, 0.0
	for i := 0; i < p.n; i++ {
		cx += p.pos[i]
		cy += p.pos[p.n+i]
	}
	cx /= float64(p.n)
	cy /= float64(p.n)
	p.regX0 = cx - p.regSize/2
	p.regY0 = cy - p.regSize/2
	g := int(math.Ceil(math.Sqrt(float64(p.n))))
	if g < 4 {
		g = 4
	}
	if g > 64 {
		g = 64
	}
	p.grid = g
	p.binSize = p.regSize / float64(g)
	p.binArea = p.binSize * p.binSize
	p.binAcc = make([]float64, g*g)
	p.psi = make([]float64, g*g)
	p.setupLevels()
	// Fixed chunk decomposition for the density scatter: depends only on
	// n, never on the worker count (the determinism contract).
	nb := p.n / 64
	if nb < 1 {
		nb = 1
	}
	if nb > 16 {
		nb = 16
	}
	p.binChunk = (p.n + nb - 1) / nb
	nb = (p.n + p.binChunk - 1) / p.binChunk
	p.binChunks = make([][]float64, nb)
	for c := range p.binChunks {
		p.binChunks[c] = make([]float64, g*g)
	}
}

// samplePotential bilinearly interpolates ψ at (x, y) and returns the value
// together with the EXACT gradient of that interpolation (so the objective
// and its gradient are mutually consistent for the line search). Outside
// the region the value clamps and the corresponding gradient component
// is zero.
func (p *problem) samplePotential(x, y float64) (v, gx, gy float64) {
	g := p.grid
	fx := (x-p.regX0)/p.binSize - 0.5
	fy := (y-p.regY0)/p.binSize - 0.5
	clampedX, clampedY := false, false
	max := float64(g - 1)
	if fx < 0 {
		fx, clampedX = 0, true
	} else if fx > max {
		fx, clampedX = max, true
	}
	if fy < 0 {
		fy, clampedY = 0, true
	} else if fy > max {
		fy, clampedY = max, true
	}
	x0, y0 := int(fx), int(fy)
	if x0 > g-2 {
		x0 = g - 2
	}
	if y0 > g-2 {
		y0 = g - 2
	}
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	x1, y1 := x0+1, y0+1
	tx, ty := fx-float64(x0), fy-float64(y0)
	v00 := p.psi[y0*g+x0]
	v10 := p.psi[y0*g+x1]
	v01 := p.psi[y1*g+x0]
	v11 := p.psi[y1*g+x1]
	v = v00*(1-tx)*(1-ty) + v10*tx*(1-ty) + v01*(1-tx)*ty + v11*tx*ty
	if !clampedX {
		gx = ((v10-v00)*(1-ty) + (v11-v01)*ty) / p.binSize
	}
	if !clampedY {
		gy = ((v01-v00)*(1-tx) + (v11-v10)*tx) / p.binSize
	}
	return v, gx, gy
}

// initialGrid produces the regular initial placement of Algorithm 4
// line 1. It is connectivity-aware and hierarchical: every crossbar and
// the neurons/synapses homed to it are packed into a compact square tile
// (crossbar at the center), and the tiles are then shelf-packed in a
// greedy chain order that keeps crossbars sharing neurons adjacent. The
// non-convex refinement thus starts from a basin where cluster locality —
// the property the ISC clustering creates and the paper's Figure 10
// layout exhibits — is already expressed.
func (p *problem) initialGrid() {
	groups, adj, leftovers := p.connectivityGroups()
	if groups == nil {
		order := make([]int, p.n)
		for i := range order {
			order[i] = i
		}
		p.shelfPack(order)
		return
	}
	p.packTiles(groups, spectralTileOrder(adj), leftovers)
}

// tileGroup is one crossbar with the cells homed to it.
type tileGroup struct {
	crossbar int   // crossbar cell id
	members  []int // neuron and synapse cell ids homed to this crossbar
}

// connectivityGroups assigns every neuron to the crossbar with the largest
// summed wire weight to it (its "home"), synapses to their source neuron's
// home, and returns the per-crossbar groups together with their pairwise
// adjacency (how many neurons homed to one are also wired to the other),
// plus the cells with no crossbar attachment. It returns nil groups when
// the netlist has no crossbars.
func (p *problem) connectivityGroups() ([]tileGroup, [][]float64, []int) {
	n := p.n
	var crossbars []int
	for i, c := range p.nl.Cells {
		if c.Kind == netlist.KindCrossbar {
			crossbars = append(crossbars, i)
		}
	}
	if len(crossbars) == 0 {
		return nil, nil, nil
	}
	cbIndex := make(map[int]int, len(crossbars)) // cell id → crossbar slot
	for slot, id := range crossbars {
		cbIndex[id] = slot
	}
	// Home of each neuron: the crossbar with the largest summed wire
	// weight to it.
	homeWeight := make(map[int]map[int]float64) // neuron cell → crossbar slot → weight
	for _, w := range p.nl.Wires {
		var neuron, cb int
		if slot, ok := cbIndex[w.From]; ok {
			cb, neuron = slot, w.To
		} else if slot, ok := cbIndex[w.To]; ok {
			cb, neuron = slot, w.From
		} else {
			continue
		}
		if p.nl.Cells[neuron].Kind != netlist.KindNeuron {
			continue
		}
		m := homeWeight[neuron]
		if m == nil {
			m = map[int]float64{}
			homeWeight[neuron] = m
		}
		m[cb] += w.Weight
	}
	home := make([]int, n) // cell → crossbar slot, -1 if none
	for i := range home {
		home[i] = -1
	}
	for neuron, m := range homeWeight {
		best, bestW := -1, 0.0
		for slot, wt := range m {
			if wt > bestW || (wt == bestW && (best == -1 || slot < best)) {
				best, bestW = slot, wt
			}
		}
		home[neuron] = best
	}
	// Synapses follow their source neuron's home (fallback: target's).
	for i, c := range p.nl.Cells {
		if c.Kind != netlist.KindSynapse {
			continue
		}
		for _, w := range p.nl.Wires {
			if w.From == i && home[w.To] >= 0 {
				home[i] = home[w.To]
				break
			}
			if w.To == i && home[w.From] >= 0 {
				home[i] = home[w.From]
				break
			}
		}
	}
	// Crossbar adjacency: number of neurons homed to one that are wired to
	// the other.
	adj := make([][]float64, len(crossbars))
	for i := range adj {
		adj[i] = make([]float64, len(crossbars))
	}
	for neuron, m := range homeWeight {
		h := home[neuron]
		if h < 0 {
			continue
		}
		for slot := range m {
			if slot != h {
				adj[h][slot]++
				adj[slot][h]++
			}
		}
	}
	// Collect members per crossbar slot; groups stay in slot order — the
	// caller arranges them spatially from the adjacency.
	members := make([][]int, len(crossbars))
	var leftovers []int
	for i := range p.nl.Cells {
		if _, isCB := cbIndex[i]; isCB {
			continue
		}
		h := home[i]
		if h < 0 {
			leftovers = append(leftovers, i)
			continue
		}
		members[h] = append(members[h], i)
	}
	groups := make([]tileGroup, 0, len(crossbars))
	for slot := range crossbars {
		groups = append(groups, tileGroup{crossbar: crossbars[slot], members: members[slot]})
	}
	return groups, adj, leftovers
}

// spectralTileOrder orders the tiles for the serpentine shelf layout by a
// two-dimensional spectral embedding of the tile adjacency graph: the two
// lowest non-trivial Laplacian eigenvectors give each tile a (u₂, u₃)
// coordinate, tiles are split into √G rows by u₂, and each row is sorted by
// u₃ — so tiles that share neurons land in nearby shelf positions in both
// dimensions. This is where the clustered design profits: ISC crossbars
// share neuron neighborhoods and embed with strong structure, while the
// FullCro block graph is near-complete and embeds to an unordered blob.
func spectralTileOrder(adj [][]float64) []int {
	g := len(adj)
	order := make([]int, g)
	for i := range order {
		order[i] = i
	}
	if g < 4 {
		return order
	}
	l := matrix.NewDense(g, g)
	for i := 0; i < g; i++ {
		deg := 0.0
		for j := 0; j < g; j++ {
			if i != j {
				deg += adj[i][j]
				l.Set(i, j, -adj[i][j])
			}
		}
		l.Set(i, i, deg)
	}
	_, vecs, err := matrix.EigSym(l)
	if err != nil {
		return order // fall back to slot order
	}
	u2, u3 := vecs.Col(1), vecs.Col(2)
	sort.SliceStable(order, func(a, b int) bool { return u2[order[a]] < u2[order[b]] })
	rows := int(math.Round(math.Sqrt(float64(g))))
	if rows < 1 {
		rows = 1
	}
	perRow := (g + rows - 1) / rows
	out := make([]int, 0, g)
	for r := 0; r < rows; r++ {
		lo := r * perRow
		if lo >= g {
			break
		}
		hi := lo + perRow
		if hi > g {
			hi = g
		}
		row := append([]int(nil), order[lo:hi]...)
		sort.SliceStable(row, func(a, b int) bool { return u3[row[a]] < u3[row[b]] })
		out = append(out, row...)
	}
	return out
}

// packSequence shelf-packs the cells in order into rows of the given width
// starting at the local origin, writing center positions into p.pos. It
// returns the used extent.
func (p *problem) packSequence(cells []int, shelfW float64) (usedW, usedH float64) {
	x, y, rowH := 0.0, 0.0, 0.0
	for _, i := range cells {
		w, h := p.vw[i], p.vh[i]
		if x+w > shelfW && x > 0 {
			y += rowH
			rowH = 0
			x = 0
		}
		p.pos[i] = x + w/2
		p.pos[p.n+i] = y + h/2
		x += w
		if h > rowH {
			rowH = h
		}
		if x > usedW {
			usedW = x
		}
	}
	usedH = y + rowH
	return usedW, usedH
}

// packTiles lays each group out as a compact square-ish tile (half its
// neurons, the crossbar, the other half, then its synapses, shelf-packed at
// roughly the crossbar's width) and shelf-packs the tiles in the given
// order on serpentine rows, so spectrally-adjacent (neuron-sharing) tiles
// stay adjacent on the die.
func (p *problem) packTiles(groups []tileGroup, order []int, leftovers []int) {
	type tile struct {
		cells []int
		w, h  float64
	}
	var tiles []tile
	for _, gi := range order {
		g := groups[gi]
		var neurons, syns []int
		for _, m := range g.members {
			if p.nl.Cells[m].Kind == netlist.KindSynapse {
				syns = append(syns, m)
			} else {
				neurons = append(neurons, m)
			}
		}
		half := len(neurons) / 2
		seq := make([]int, 0, len(g.members)+1)
		seq = append(seq, neurons[:half]...)
		seq = append(seq, g.crossbar)
		seq = append(seq, neurons[half:]...)
		seq = append(seq, syns...)
		area := 0.0
		for _, c := range seq {
			area += p.vw[c] * p.vh[c]
		}
		tw := math.Max(p.vw[g.crossbar], math.Sqrt(area))
		w, h := p.packSequence(seq, tw)
		tiles = append(tiles, tile{cells: seq, w: w, h: h})
	}
	for _, c := range leftovers {
		p.pos[c], p.pos[p.n+c] = p.vw[c]/2, p.vh[c]/2
		tiles = append(tiles, tile{cells: []int{c}, w: p.vw[c], h: p.vh[c]})
	}
	totalArea := 0.0
	maxTileW := 0.0
	for _, t := range tiles {
		totalArea += t.w * t.h
		if t.w > maxTileW {
			maxTileW = t.w
		}
	}
	// Choose the shelf width iteratively so the packed layout comes out
	// square-ish: variable-height rows waste vertical space, so a fixed
	// √area guess can produce badly elongated dies.
	shelfW := math.Max(1.08*math.Sqrt(totalArea), maxTileW)
	var usedH float64
	pack := func(shelfW float64, commit bool) float64 {
		x, y, rowH := 0.0, 0.0, 0.0
		leftToRight := true
		for _, t := range tiles {
			if x+t.w > shelfW && x > 0 {
				y += rowH
				rowH = 0
				x = 0
				leftToRight = !leftToRight
			}
			if commit {
				originX := x
				if !leftToRight {
					originX = math.Max(shelfW-x-t.w, 0)
				}
				for _, c := range t.cells {
					p.pos[c] += originX
					p.pos[p.n+c] += y
				}
			}
			x += t.w
			if t.h > rowH {
				rowH = t.h
			}
		}
		return y + rowH
	}
	for iter := 0; iter < 4; iter++ {
		usedH = pack(shelfW, false)
		if usedH <= 0 {
			break
		}
		next := math.Max(math.Sqrt(shelfW*usedH), maxTileW)
		if math.Abs(next-shelfW) < 0.02*shelfW {
			shelfW = next
			break
		}
		shelfW = next
	}
	pack(shelfW, true)
}

// shelfPack lays the cells out in sequence order on serpentine shelves
// whose width targets a square die at the total virtual area.
func (p *problem) shelfPack(order []int) {
	totalVArea := 0.0
	for i := 0; i < p.n; i++ {
		totalVArea += p.vw[i] * p.vh[i]
	}
	shelfW := 1.1 * math.Sqrt(totalVArea)
	x, y, rowH := 0.0, 0.0, 0.0
	leftToRight := true
	place := func(i int) {
		w, h := p.vw[i], p.vh[i]
		if x+w > shelfW && x > 0 {
			y += rowH
			rowH = 0
			x = 0
			leftToRight = !leftToRight
		}
		cx := x + w/2
		if !leftToRight {
			cx = shelfW - x - w/2
		}
		p.pos[i] = cx
		p.pos[p.n+i] = y + h/2
		x += w
		if h > rowH {
			rowH = h
		}
	}
	for _, i := range order {
		place(i)
	}
}

// wirelength returns the WA smooth weighted wirelength of Eq. 1 at pos.
func (p *problem) wirelength(pos []float64) float64 {
	gamma := p.opts.Gamma
	total := 0.0
	for _, w := range p.nl.Wires {
		xa, xb := pos[w.From], pos[w.To]
		ya, yb := pos[p.n+w.From], pos[p.n+w.To]
		total += w.Weight * (waSpan2(xa, xb, gamma) + waSpan2(ya, yb, gamma))
	}
	return total
}

// waSpan2 is the two-pin WA span: smooth-max minus smooth-min of {a, b}.
// With the log-sum-exp form this reduces to d·tanh(d/(2γ)) where d = a−b,
// which approaches |d| for d ≫ γ and is smooth at 0.
func waSpan2(a, b, gamma float64) float64 {
	d := a - b
	return d * math.Tanh(d/(2*gamma))
}

// waSpan2Grad returns ∂span/∂a (and −∂span/∂b) for the two-pin WA span.
func waSpan2Grad(a, b, gamma float64) float64 {
	d := a - b
	t := math.Tanh(d / (2 * gamma))
	return t + d*(1-t*t)/(2*gamma)
}

// axisOverlap returns the overlap of the interval [c−w/2, c+w/2] with
// [lo, hi] and the derivative of that overlap with respect to c (−1, 0, or
// +1 up to measure-zero kinks).
func axisOverlap(c, w, lo, hi float64) (ov, grad float64) {
	l := c - w/2
	r := c + w/2
	a := math.Max(l, lo)
	b := math.Min(r, hi)
	if b <= a {
		return 0, 0
	}
	switch {
	case l < lo && r < hi:
		grad = 1 // sliding right grows the overlap
	case l > lo && r > hi:
		grad = -1
	default:
		grad = 0
	}
	return b - a, grad
}

// boundary returns the out-of-region excursion of cell i along one axis
// (x if axis==0) and its sign: positive excursion past the high edge,
// negative past the low edge.
func (p *problem) boundary(pos []float64, i, axis int) (over, sign float64) {
	var c, w, r0 float64
	if axis == 0 {
		c, w, r0 = pos[i], p.vw[i], p.regX0
	} else {
		c, w, r0 = pos[p.n+i], p.vh[i], p.regY0
	}
	lo := r0 + w/2
	hi := r0 + p.regSize - w/2
	if c < lo {
		return lo - c, -1
	}
	if c > hi {
		return c - hi, 1
	}
	return 0, 0
}

// binRange returns the bin index range [b0, b1] a cell interval touches
// along one axis, clamped to the grid; ok is false if it misses the region.
func (p *problem) binRange(c, w, r0 float64) (b0, b1 int, ok bool) {
	lo := (c - w/2 - r0) / p.binSize
	hi := (c + w/2 - r0) / p.binSize
	b0 = int(math.Floor(lo))
	b1 = int(math.Floor(hi))
	if b1 < 0 || b0 >= p.grid {
		return 0, 0, false
	}
	if b0 < 0 {
		b0 = 0
	}
	if b1 >= p.grid {
		b1 = p.grid - 1
	}
	return b0, b1, true
}

// density is the spreading cost under the current (frozen) electrostatic
// field: Φ = Σ_i a_i·ψ(x_i, y_i) plus a quadratic containment term for
// cells escaping the placement region. The field itself is refreshed once
// per λ round by solveField; within a round Φ is a smooth, cheap objective
// the conjugate-gradient solver can line-search on.
func (p *problem) density(pos []float64) float64 {
	total := 0.0
	for i := 0; i < p.n; i++ {
		va := p.vw[i] * p.vh[i]
		v, _, _ := p.samplePotential(pos[i], pos[p.n+i])
		total += va * v
		for axis := 0; axis < 2; axis++ {
			over, _ := p.boundary(pos, i, axis)
			if over > 0 {
				total += over * over * va / (p.binArea * p.binSize)
			}
		}
	}
	return total
}

// step performs one spreading iteration: refresh the electrostatic field
// at the current positions, combine the WA wirelength gradient with λ times
// the density gradient (Algorithm 4 line 3's penalty objective), and move
// every cell along the conjugate direction with the per-cell displacement
// capped at a fraction of a density bin. Re-solving the field each step and
// capping movement replaces the line search of a frozen-objective CG —
// with a field that changes under the optimizer, a fixed objective to
// line-search on does not exist, and unbounded steps race down the stale
// potential and oscillate (the ePlace/force-directed literature uses the
// same bounded-step scheme).
func (p *problem) step(lambda float64) error {
	if err := p.solveField(p.pos); err != nil {
		return err
	}
	if err := p.wirelengthGrad(p.pos, p.stepGrad); err != nil {
		return err
	}
	gd := p.stepScratch
	if err := p.densityGrad(p.pos, gd); err != nil {
		return err
	}
	for i := range p.stepGrad {
		p.stepGrad[i] += lambda * gd[i]
	}
	// Polak-Ribière conjugate direction with restart on non-descent.
	num, den := 0.0, 0.0
	for i := range p.stepGrad {
		num += p.stepGrad[i] * (p.stepGrad[i] - p.stepPrevG[i])
		den += p.stepPrevG[i] * p.stepPrevG[i]
	}
	beta := 0.0
	if den > 0 {
		beta = math.Max(0, num/den)
	}
	descent := 0.0
	for i := range p.stepDir {
		p.stepDir[i] = -p.stepGrad[i] + beta*p.stepDir[i]
		descent += p.stepDir[i] * p.stepGrad[i]
	}
	if descent >= 0 {
		for i := range p.stepDir {
			p.stepDir[i] = -p.stepGrad[i]
		}
	}
	// Cap the largest per-cell displacement at a fraction of a bin.
	maxMove := 0.0
	for i := 0; i < p.n; i++ {
		m := math.Hypot(p.stepDir[i], p.stepDir[p.n+i])
		if m > maxMove {
			maxMove = m
		}
	}
	if maxMove <= 0 {
		return nil
	}
	eta := 0.35 * p.binSize / maxMove
	for i := range p.pos {
		p.pos[i] += eta * p.stepDir[i]
	}
	copy(p.stepPrevG, p.stepGrad)
	return nil
}

// overlap1D returns the 1-D overlap of two centered segments.
func overlap1D(c1, w1, c2, w2 float64) float64 {
	lo := math.Max(c1-w1/2, c2-w2/2)
	hi := math.Min(c1+w1/2, c2+w2/2)
	return hi - lo
}

// legalize removes remaining physical overlap (Algorithm 4 line 7): cells
// are processed in descending area order; an overlapping cell is moved to
// the nearest free position found on an expanding spiral of candidate
// offsets. Positions are finally shifted so the bounding box starts at the
// origin.
func (p *problem) legalize() {
	order := make([]int, p.n)
	for i := range order {
		order[i] = i
	}
	p.sortByAreaDesc(order)
	ix := p.newOverlapIndex()
	step := p.meanStep() / 2
	for _, i := range order {
		x, y := p.pos[i], p.pos[p.n+i]
		if ix.overlaps(i, x, y) {
			if nx, ny, ok := ix.spiral(i, x, y, step); ok {
				p.pos[i], p.pos[p.n+i] = nx, ny
			} else {
				// Fall back to a far-away slot; practically unreachable.
				p.pos[i] = x + 1200*step
			}
		}
		ix.add(i)
	}
	p.refine(nil, ix)
	// Normalize to the origin.
	minX, minY := math.Inf(1), math.Inf(1)
	for i := 0; i < p.n; i++ {
		minX = math.Min(minX, p.pos[i]-p.pw[i]/2)
		minY = math.Min(minY, p.pos[p.n+i]-p.ph[i]/2)
	}
	for i := 0; i < p.n; i++ {
		p.pos[i] -= minX
		p.pos[p.n+i] -= minY
	}
}

// sortByAreaDesc orders cells by descending physical area, ties by
// ascending index — the legalizer's insertion schedule.
func (p *problem) sortByAreaDesc(cells []int) {
	sort.Slice(cells, func(a, b int) bool {
		i, j := cells[a], cells[b]
		ai, aj := p.pw[i]*p.ph[i], p.pw[j]*p.ph[j]
		return ai > aj || (ai == aj && i < j)
	})
}

// refineSweeps is the number of greedy post-legalization passes.
const refineSweeps = 12

// refine claws back wirelength lost to legalization: for each cell not
// frozen (nil freezes none; in ID order, several sweeps) it computes the
// weighted centroid of its wire partners and tries positions stepping from
// that target back toward the current location, taking the first
// overlap-free one that improves the cell's incident wirelength. ix must
// index every cell at its current position; moves keep it current.
func (p *problem) refine(frozen []bool, ix *overlapIndex) {
	if len(p.nl.Wires) == 0 {
		return
	}
	cellWL := func(i int, x, y float64) float64 {
		total := 0.0
		for _, wi := range p.incWire[p.incStart[i]:p.incStart[i+1]] {
			w := p.nl.Wires[wi]
			o := w.To
			if o == i {
				o = w.From
			}
			total += w.Weight * (math.Abs(x-p.pos[o]) + math.Abs(y-p.pos[p.n+o]))
		}
		return total
	}
	for sweep := 0; sweep < refineSweeps; sweep++ {
		moved := false
		for i := 0; i < p.n; i++ {
			if (frozen != nil && frozen[i]) || p.incStart[i] == p.incStart[i+1] {
				continue
			}
			// Weighted centroid of partners as the target.
			tx, ty, tw := 0.0, 0.0, 0.0
			for _, wi := range p.incWire[p.incStart[i]:p.incStart[i+1]] {
				w := p.nl.Wires[wi]
				o := w.To
				if o == i {
					o = w.From
				}
				tx += w.Weight * p.pos[o]
				ty += w.Weight * p.pos[p.n+o]
				tw += w.Weight
			}
			tx /= tw
			ty /= tw
			curWL := cellWL(i, p.pos[i], p.pos[p.n+i])
			// Try positions from the target toward the current location.
			for _, f := range []float64{0, 0.25, 0.5, 0.75} {
				cx := tx + f*(p.pos[i]-tx)
				cy := ty + f*(p.pos[p.n+i]-ty)
				if cellWL(i, cx, cy) >= curWL-1e-9 {
					continue
				}
				if ix.overlaps(i, cx, cy) {
					continue
				}
				p.pos[i], p.pos[p.n+i] = cx, cy
				ix.move(i)
				moved = true
				break
			}
		}
		if !moved {
			break
		}
	}
}

// legalClearance is the per-axis overlap two legalized cells may share: a
// small tolerance that keeps abutting cells from counting as overlapping.
const legalClearance = 1e-6

// overlapIndex answers the legalizer's question — would cell i centred at
// (x, y) overlap an indexed cell by more than legalClearance on both axes?
// — without scanning every cell. Cells are bucketed by their centres on a
// square grid whose side is the largest physical extent. Two cells that
// overlap on an axis have centres closer than half their summed extents,
// hence closer than one side, so every cell a query can hit lies in the
// query's bucket or one of its eight neighbours. The answer is the same
// whatever order the buckets are visited in, so the index changes no
// placement; TestPlaceOverlapIndexMatchesScan pins it to the linear scan.
type overlapIndex struct {
	p       *problem
	side    float64
	buckets map[uint64][]int
	key     []uint64 // bucket key of each indexed cell
}

// newOverlapIndex returns an empty index over p's cells.
func (p *problem) newOverlapIndex() *overlapIndex {
	side := p.maxPExt
	if side <= 0 {
		side = 1 // all cells are zero-sized: any side works
	}
	return &overlapIndex{p: p, side: side, buckets: map[uint64][]int{}, key: make([]uint64, p.n)}
}

// bucket returns the grid coordinates of the bucket holding point (x, y).
func (ix *overlapIndex) bucket(x, y float64) (bx, by int) {
	return int(math.Floor(x / ix.side)), int(math.Floor(y / ix.side))
}

// add indexes cell i at its current position.
func (ix *overlapIndex) add(i int) {
	k := bucketKey(ix.bucket(ix.p.pos[i], ix.p.pos[ix.p.n+i]))
	ix.key[i] = k
	ix.buckets[k] = append(ix.buckets[k], i)
}

// move re-indexes the already indexed cell i at its current position.
func (ix *overlapIndex) move(i int) {
	k := bucketKey(ix.bucket(ix.p.pos[i], ix.p.pos[ix.p.n+i]))
	old := ix.key[i]
	if k == old {
		return
	}
	b := ix.buckets[old]
	for s, j := range b {
		if j == i {
			b[s] = b[len(b)-1]
			ix.buckets[old] = b[:len(b)-1]
			break
		}
	}
	ix.key[i] = k
	ix.buckets[k] = append(ix.buckets[k], i)
}

// neighbourOffsets lists a bucket and its eight neighbours, its own first:
// a candidate that overlaps anything most likely overlaps a cell there.
var neighbourOffsets = [9][2]int{{0, 0}, {-1, -1}, {0, -1}, {1, -1}, {-1, 0}, {1, 0}, {-1, 1}, {0, 1}, {1, 1}}

// overlaps reports whether cell i centred at (x, y) would overlap an
// indexed cell other than itself by more than legalClearance on both axes.
func (ix *overlapIndex) overlaps(i int, x, y float64) bool {
	p := ix.p
	bx, by := ix.bucket(x, y)
	for _, off := range neighbourOffsets {
		for _, j := range ix.buckets[bucketKey(bx+off[0], by+off[1])] {
			if j != i && overlap1D(x, p.pw[i], p.pos[j], p.pw[j]) > legalClearance &&
				overlap1D(y, p.ph[i], p.pos[p.n+j], p.ph[j]) > legalClearance {
				return true
			}
		}
	}
	return false
}

// spiral returns the first position around (x, y) where cell i overlaps no
// indexed cell, trying rings of radius ring·step with 12·ring evenly spaced
// candidates each, up to 1024 rings; ok is false when every candidate is
// taken.
func (ix *overlapIndex) spiral(i int, x, y, step float64) (nx, ny float64, ok bool) {
	for ring := 1; ring <= 1024; ring++ {
		r := float64(ring) * step
		steps := 12 * ring
		for s := 0; s < steps; s++ {
			ang := 2 * math.Pi * float64(s) / float64(steps)
			nx, ny = x+r*math.Cos(ang), y+r*math.Sin(ang)
			if !ix.overlaps(i, nx, ny) {
				return nx, ny, true
			}
		}
	}
	return 0, 0, false
}

// meanStep is the legalizer's spiral step: half the mean physical extent.
func (p *problem) meanStep() float64 {
	s := 0.0
	for i := 0; i < p.n; i++ {
		s += math.Max(p.pw[i], p.ph[i])
	}
	return math.Max(s/float64(p.n)/2, 1e-3)
}

// result packages the final placement.
func (p *problem) result() *Result {
	r := &Result{
		X:              make([]float64, p.n),
		Y:              make([]float64, p.n),
		Outer:          p.outer,
		FieldSolves:    p.fieldSolves,
		VCycles:        p.vcycles,
		FieldSweeps:    p.fieldSweeps,
		SwapCandidates: p.swapCandidates,
		SwapsAccepted:  p.swapsAccepted,
	}
	r.MinX, r.MinY = math.Inf(1), math.Inf(1)
	r.MaxX, r.MaxY = math.Inf(-1), math.Inf(-1)
	for i := 0; i < p.n; i++ {
		r.X[i], r.Y[i] = p.pos[i], p.pos[p.n+i]
		r.MinX = math.Min(r.MinX, r.X[i]-p.pw[i]/2)
		r.MaxX = math.Max(r.MaxX, r.X[i]+p.pw[i]/2)
		r.MinY = math.Min(r.MinY, r.Y[i]-p.ph[i]/2)
		r.MaxY = math.Max(r.MaxY, r.Y[i]+p.ph[i]/2)
	}
	for _, w := range p.nl.Wires {
		r.HPWL += w.Weight * (math.Abs(r.X[w.From]-r.X[w.To]) + math.Abs(r.Y[w.From]-r.Y[w.To]))
	}
	return r
}

// TotalOverlap exposes the physical overlap of a finished placement for
// verification: it must be ~0 after legalization.
func TotalOverlap(nl *netlist.Netlist, r *Result) float64 {
	total := 0.0
	for i := range nl.Cells {
		for j := i + 1; j < len(nl.Cells); j++ {
			ox := overlap1D(r.X[i], nl.Cells[i].W, r.X[j], nl.Cells[j].W)
			if ox <= 0 {
				continue
			}
			oy := overlap1D(r.Y[i], nl.Cells[i].H, r.Y[j], nl.Cells[j].H)
			if oy <= 0 {
				continue
			}
			total += ox * oy
		}
	}
	return total
}
