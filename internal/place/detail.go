package place

import (
	"math"
	"sort"

	"repro/internal/netlist"
)

// swapSweeps bounds the swap-based detailed placement passes.
const swapSweeps = 8

// swapRadius bounds the detailed-placement candidate search: swap partners
// for a cell are the same-footprint cells within 8 footprints (the
// footprint's larger side) of it. Measured on the clustered experiment
// netlists this recovers the all-pairs sweep's wirelength to well under a
// percent while keeping the pass near-linear.
const swapRadius = 8.0

// swapRefine is the swap-based detailed placement pass: exchanging the
// positions of two same-footprint cells (neurons with neurons, synapses
// with synapses) is always legal, so the pass greedily accepts every
// position swap that reduces the weighted wirelength until a sweep finds
// none. This recovers locality that the analytical phase's spreading
// cannot express by continuous motion.
//
// The old pass compared all pairs within a footprint class — O(k²·deg)
// per sweep. This one is near-linear: candidates come from a spatial
// bucket grid (cells within swapRadius footprints, enumerated in
// deterministic sorted-bucket order), and each cell's incident wirelength
// is cached (cellWL) with incremental delta updates on accepted swaps, so
// evaluating a pair costs O(deg(a)+deg(b)) instead of re-walking both
// neighborhoods from scratch. The cache is rebuilt at every sweep start to
// bound floating-point drift from the incremental updates. The pass is
// serial, hence trivially worker-invariant.
func (p *problem) swapRefine() error {
	if len(p.nl.Wires) == 0 {
		return nil
	}
	// Group swappable cells by footprint class, in deterministic order.
	classes := map[[2]float64][]int{}
	var keys [][2]float64
	for i, c := range p.nl.Cells {
		if c.Kind == netlist.KindCrossbar {
			continue // mixed sizes; swaps rarely legal
		}
		k := [2]float64{c.W, c.H}
		if _, ok := classes[k]; !ok {
			keys = append(keys, k)
		}
		classes[k] = append(classes[k], i)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	for sweep := 0; sweep < swapSweeps; sweep++ {
		if err := p.ctx.Err(); err != nil {
			return err
		}
		p.rebuildCellWL()
		improved := false
		for _, key := range keys {
			members := classes[key]
			if len(members) < 2 {
				continue
			}
			if p.classSweep(key, members) {
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return nil
}

// rebuildCellWL recomputes the per-cell incident weighted wirelength cache
// from scratch (O(E)), resetting the drift the incremental swap updates
// accumulate within a sweep.
func (p *problem) rebuildCellWL() {
	for i := 0; i < p.n; i++ {
		x, y := p.pos[i], p.pos[p.n+i]
		total := 0.0
		for _, wi := range p.incWire[p.incStart[i]:p.incStart[i+1]] {
			w := &p.nl.Wires[wi]
			o := w.To
			if o == i {
				o = w.From
			}
			total += w.Weight * (math.Abs(x-p.pos[o]) + math.Abs(y-p.pos[p.n+o]))
		}
		p.cellWL[i] = total
	}
}

// classSweep runs one bucketed candidate sweep over a footprint class and
// reports whether any swap was accepted. Buckets are sized
// swapRadius × max(W, H); a cell pairs with classmates in its own bucket and
// the four forward-neighbor buckets, so every unordered pair within the
// radius is tried exactly once per sweep, in deterministic sorted order.
// Accepted swaps exchange two positions of the same footprint, so the
// class's position multiset — and thus the bucket geometry — stays valid
// for the rest of the sweep.
func (p *problem) classSweep(key [2]float64, members []int) bool {
	ext := swapRadius * math.Max(key[0], key[1])
	if ext <= 0 || math.IsInf(ext, 0) {
		return false
	}
	nb := p.fillBuckets(members, p.pos, ext)
	improved := false
	for c := 0; c < nb; c++ {
		ids := p.ovSorter.ids[p.ovStart[c]:p.ovStart[c+1]]
		for a := 0; a < len(ids); a++ {
			for b := a + 1; b < len(ids); b++ {
				if p.trySwap(ids[a], ids[b]) {
					improved = true
				}
			}
		}
		bkey := p.ovBKey[c]
		bx := int(bkey>>21) - bucketBias
		by := int(bkey&((1<<21)-1)) - bucketBias
		for _, off := range forwardOffsets {
			oc := p.findBucket(bucketKey(bx+off[0], by+off[1]))
			if oc < 0 {
				continue
			}
			others := p.ovSorter.ids[p.ovStart[oc]:p.ovStart[oc+1]]
			for _, a := range ids {
				for _, b := range others {
					if p.trySwap(a, b) {
						improved = true
					}
				}
			}
		}
	}
	return improved
}

// trySwap evaluates exchanging the positions of same-footprint cells a and
// b and commits the swap when it reduces the weighted wirelength. The a↔b
// wires themselves are invariant under the exchange (the two centers swap,
// Manhattan distance unchanged), so they are split out of both sides.
func (p *problem) trySwap(a, b int) bool {
	if p.incStart[a+1] == p.incStart[a] && p.incStart[b+1] == p.incStart[b] {
		return false // neither cell has wires: the swap cannot change WL
	}
	p.swapCandidates++
	ax, ay := p.pos[a], p.pos[p.n+a]
	bx, by := p.pos[b], p.pos[p.n+b]
	newA, abA := p.wlExcluding(a, b, bx, by)
	newB, abB := p.wlExcluding(b, a, ax, ay)
	curA := p.cellWL[a] - abA
	curB := p.cellWL[b] - abB
	if newA+newB >= curA+curB-1e-9 {
		return false
	}
	p.swapsAccepted++
	// Partner caches see each endpoint move; the a↔b wires are handled by
	// the explicit cache writes below (their length is unchanged).
	p.adjustPartners(a, b, ax, ay, bx, by)
	p.adjustPartners(b, a, bx, by, ax, ay)
	p.pos[a], p.pos[p.n+a] = bx, by
	p.pos[b], p.pos[p.n+b] = ax, ay
	p.cellWL[a] = newA + abA
	p.cellWL[b] = newB + abB
	return true
}

// wlExcluding walks cell i's incident wires once, returning the weighted
// wirelength with i moved to (x, y) excluding wires to `other` (wl), and
// the current weighted length of the i↔other wires (ab).
func (p *problem) wlExcluding(i, other int, x, y float64) (wl, ab float64) {
	for _, wi := range p.incWire[p.incStart[i]:p.incStart[i+1]] {
		w := &p.nl.Wires[wi]
		o := w.To
		if o == i {
			o = w.From
		}
		if o == other {
			ab += w.Weight * (math.Abs(p.pos[i]-p.pos[other]) +
				math.Abs(p.pos[p.n+i]-p.pos[p.n+other]))
			continue
		}
		wl += w.Weight * (math.Abs(x-p.pos[o]) + math.Abs(y-p.pos[p.n+o]))
	}
	return wl, ab
}

// adjustPartners applies the wirelength delta of cell i moving from
// (oldX, oldY) to (newX, newY) to the cellWL cache of every wire partner
// except skip (the swap counterpart, whose cache is rewritten wholesale).
// Must run before p.pos is updated for the move.
func (p *problem) adjustPartners(i, skip int, oldX, oldY, newX, newY float64) {
	for _, wi := range p.incWire[p.incStart[i]:p.incStart[i+1]] {
		w := &p.nl.Wires[wi]
		o := w.To
		if o == i {
			o = w.From
		}
		if o == skip || o == i {
			continue
		}
		ox, oy := p.pos[o], p.pos[p.n+o]
		p.cellWL[o] += w.Weight * (math.Abs(newX-ox) - math.Abs(oldX-ox) +
			math.Abs(newY-oy) - math.Abs(oldY-oy))
	}
}
