package main

import (
	"fmt"
	"math"

	autoncs "repro"
)

// The output checks take the input network as their reference, never the
// compiler: a cover is judged against the connections the benchmark itself
// generated, and a routing against the netlist and placement it claims to
// connect.

// checkCover verifies that an assignment realizes net exactly: every
// connection once, in a library-size crossbar whose rows and columns carry
// its endpoints, or as a discrete synapse — and nothing else.
func checkCover(net *autoncs.Network, a *autoncs.Assignment, lib autoncs.Library) error {
	n := net.N()
	if a.N != n {
		return fmt.Errorf("assignment has %d neurons, network %d", a.N, n)
	}
	sizes := make(map[int]bool)
	for _, s := range lib.Sizes() {
		sizes[s] = true
	}
	seen := make([]bool, n*n)
	mark := func(e autoncs.Edge, where string) error {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return fmt.Errorf("%s: connection %d→%d outside %d neurons", where, e.From, e.To, n)
		}
		if !net.Has(e.From, e.To) {
			return fmt.Errorf("%s: connection %d→%d is not in the network", where, e.From, e.To)
		}
		if seen[e.From*n+e.To] {
			return fmt.Errorf("%s: connection %d→%d realized twice", where, e.From, e.To)
		}
		seen[e.From*n+e.To] = true
		return nil
	}
	count := 0
	for i, cb := range a.Crossbars {
		where := fmt.Sprintf("crossbar %d", i)
		if !sizes[cb.Size] {
			return fmt.Errorf("%s: size %d is not in the library", where, cb.Size)
		}
		if len(cb.Inputs) > cb.Size || len(cb.Outputs) > cb.Size {
			return fmt.Errorf("%s: %d×%d neurons exceed size %d", where, len(cb.Inputs), len(cb.Outputs), cb.Size)
		}
		in, out := make(map[int]bool, len(cb.Inputs)), make(map[int]bool, len(cb.Outputs))
		for _, v := range cb.Inputs {
			in[v] = true
		}
		for _, v := range cb.Outputs {
			out[v] = true
		}
		for _, e := range cb.Conns {
			if !in[e.From] || !out[e.To] {
				return fmt.Errorf("%s: connection %d→%d has no row or column", where, e.From, e.To)
			}
			if err := mark(e, where); err != nil {
				return err
			}
		}
		count += len(cb.Conns)
	}
	for _, e := range a.Synapses {
		if err := mark(e, "synapse"); err != nil {
			return err
		}
	}
	count += len(a.Synapses)
	if count != net.NNZ() {
		for _, e := range net.Edges() {
			if !seen[e.From*n+e.To] {
				return fmt.Errorf("connection %d→%d dropped (%d of %d realized)", e.From, e.To, count, net.NNZ())
			}
		}
	}
	return nil
}

// checkDesign verifies a compiled design: its assignment covers net, every
// netlist wire has a routed path of adjacent grid bins from its source
// cell's bin to its sink cell's, each wire's length follows from its path,
// and the report's wirelength is their sum.
func checkDesign(net *autoncs.Network, res *autoncs.Result, cfg autoncs.Config) error {
	if err := checkCover(net, res.Assignment, cfg.Library); err != nil {
		return err
	}
	nl, pl, rt, rep := res.Netlist, res.Placement, res.Routing, res.Report
	if nl == nil || pl == nil || rt == nil || rep == nil {
		return fmt.Errorf("result carries no physical design")
	}
	if len(rt.Paths) != len(nl.Wires) || len(rt.WireLength) != len(nl.Wires) {
		return fmt.Errorf("routing has %d paths and %d lengths for %d wires", len(rt.Paths), len(rt.WireLength), len(nl.Wires))
	}
	theta := cfg.Route.Theta
	bin := func(cell int) int {
		c := clampInt(int((pl.X[cell]-pl.MinX)/theta), rt.Cols)
		r := clampInt(int((pl.Y[cell]-pl.MinY)/theta), rt.Rows)
		return r*rt.Cols + c
	}
	sum := 0.0
	for _, w := range nl.Wires {
		p := rt.Paths[w.ID]
		if len(p) == 0 {
			return fmt.Errorf("wire %d has no routed path", w.ID)
		}
		if p[0] != bin(w.From) || p[len(p)-1] != bin(w.To) {
			return fmt.Errorf("wire %d path runs %d→%d, its cells sit in bins %d→%d", w.ID, p[0], p[len(p)-1], bin(w.From), bin(w.To))
		}
		for k := 1; k < len(p); k++ {
			dc, dr := p[k]%rt.Cols-p[k-1]%rt.Cols, p[k]/rt.Cols-p[k-1]/rt.Cols
			if dc*dc+dr*dr != 1 {
				return fmt.Errorf("wire %d path jumps from bin %d to %d", w.ID, p[k-1], p[k])
			}
		}
		want := float64(len(p)-1) * theta
		if len(p) == 1 {
			want = math.Max(math.Abs(pl.X[w.From]-pl.X[w.To])+math.Abs(pl.Y[w.From]-pl.Y[w.To]), theta/2)
		}
		if !approxEqual(rt.WireLength[w.ID], want) {
			return fmt.Errorf("wire %d length %g µm, its path gives %g µm", w.ID, rt.WireLength[w.ID], want)
		}
		sum += want
	}
	if !approxEqual(rep.Wirelength, sum) {
		return fmt.Errorf("report wirelength %g µm, wires sum to %g µm", rep.Wirelength, sum)
	}
	return nil
}

func clampInt(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}

// approxEqual compares two sums of the same terms taken in different orders.
func approxEqual(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }
