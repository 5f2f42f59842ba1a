// Package xbar models the hardware substrate of the hybrid neuromorphic
// system: the library of available memristor crossbar sizes, the crossbar
// preference (CP) metric that drives ISC's partial selection strategy, the
// hybrid Assignment (crossbars plus discrete synapses) produced by the
// clustering flow, and the device-level area and delay models scaled to the
// 45 nm node that the physical design stage consumes.
package xbar

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Library is the set of allowed (square) crossbar sizes, ascending.
// The zero value is an empty library; use NewLibrary or DefaultLibrary.
type Library struct {
	sizes []int
}

// NewLibrary builds a library from the given sizes. Sizes must be positive;
// duplicates are removed and the result is sorted ascending.
func NewLibrary(sizes ...int) (Library, error) {
	if len(sizes) == 0 {
		return Library{}, fmt.Errorf("xbar: empty crossbar library")
	}
	seen := map[int]bool{}
	var out []int
	for _, s := range sizes {
		if s <= 0 {
			return Library{}, fmt.Errorf("xbar: non-positive crossbar size %d", s)
		}
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Ints(out)
	return Library{sizes: out}, nil
}

// DefaultLibrary returns the paper's crossbar size set: 16 to 64 in steps
// of 4 (Section 4.2), the upper bound being the reliability limit of
// current memristor crossbar technology (Section 2.1, [6]).
func DefaultLibrary() Library {
	var sizes []int
	for s := 16; s <= 64; s += 4 {
		sizes = append(sizes, s)
	}
	l, err := NewLibrary(sizes...)
	if err != nil {
		panic(err) // impossible: sizes are fixed and valid
	}
	return l
}

// Sizes returns a copy of the allowed sizes, ascending.
func (l Library) Sizes() []int { return append([]int(nil), l.sizes...) }

// Empty reports whether the library has no sizes.
func (l Library) Empty() bool { return len(l.sizes) == 0 }

// Min returns the smallest allowed size. It panics on an empty library.
func (l Library) Min() int {
	l.mustNonEmpty()
	return l.sizes[0]
}

// Max returns the largest allowed size. It panics on an empty library.
func (l Library) Max() int {
	l.mustNonEmpty()
	return l.sizes[len(l.sizes)-1]
}

func (l Library) mustNonEmpty() {
	if len(l.sizes) == 0 {
		panic("xbar: empty library")
	}
}

// FitFor returns the minimum satisfiable crossbar size for a cluster of the
// given neuron count — the smallest library size ≥ clusterSize — and whether
// one exists.
func (l Library) FitFor(clusterSize int) (size int, ok bool) {
	for _, s := range l.sizes {
		if s >= clusterSize {
			return s, true
		}
	}
	return 0, false
}

// Preference is the crossbar preference criterion CP = m/s = u·s from
// Section 3.1: for utilized connections m in a crossbar of size s it grows
// with m at fixed s and shrinks with s at fixed m.
func Preference(m, s int) float64 {
	if s <= 0 {
		panic(fmt.Sprintf("xbar: preference of non-positive size %d", s))
	}
	return float64(m) / float64(s)
}

// Crossbar is one placed crossbar instance of the implementation.
// For crossbars created by clustering, Inputs and Outputs are the same
// neuron set (the cluster); for FullCro block crossbars they are the row and
// column neuron groups of the block. Conns lists exactly the network
// connections this crossbar realizes — ISC iterations may form overlapping
// neuron sets, so a crossbar does not necessarily implement every original
// connection inside its Inputs×Outputs block.
type Crossbar struct {
	Size    int          // s: the crossbar dimension from the library
	Inputs  []int        // global ids of neurons driving the crossbar rows
	Outputs []int        // global ids of neurons fed by the crossbar columns
	Conns   []graph.Edge // the connections realized by this crossbar
}

// Used returns m, the number of connections mapped into this crossbar.
func (c Crossbar) Used() int { return len(c.Conns) }

// Utilization returns u = m/s².
func (c Crossbar) Utilization() float64 {
	return float64(c.Used()) / float64(c.Size) / float64(c.Size)
}

// Preference returns CP = m/s.
func (c Crossbar) Preference() float64 { return Preference(c.Used(), c.Size) }

// Neurons returns the union of Inputs and Outputs, ascending.
func (c Crossbar) Neurons() []int {
	seen := map[int]bool{}
	var out []int
	for _, set := range [][]int{c.Inputs, c.Outputs} {
		for _, n := range set {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	sort.Ints(out)
	return out
}

// Assignment is a complete hybrid implementation topology: which
// connections live in which crossbar and which are realized as discrete
// synapses (the outliers of the clustering flow).
type Assignment struct {
	N         int          // number of neurons in the network
	Total     int          // total connections of the source network
	Crossbars []Crossbar   // mapped crossbars
	Synapses  []graph.Edge // connections realized as discrete synapses
}

// MappedConnections returns the number of connections realized in crossbars.
func (a *Assignment) MappedConnections() int {
	m := 0
	for _, c := range a.Crossbars {
		m += c.Used()
	}
	return m
}

// OutlierRatio returns the fraction of connections implemented as discrete
// synapses.
func (a *Assignment) OutlierRatio() float64 {
	if a.Total == 0 {
		return 0
	}
	return float64(len(a.Synapses)) / float64(a.Total)
}

// AvgUtilization returns the mean utilization u over all crossbars, or 0 if
// there are none.
func (a *Assignment) AvgUtilization() float64 {
	if len(a.Crossbars) == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range a.Crossbars {
		sum += c.Utilization()
	}
	return sum / float64(len(a.Crossbars))
}

// AvgPreference returns the mean CP over all crossbars, or 0 if none.
func (a *Assignment) AvgPreference() float64 {
	if len(a.Crossbars) == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range a.Crossbars {
		sum += c.Preference()
	}
	return sum / float64(len(a.Crossbars))
}

// SizeHistogram returns a map from crossbar size to instance count
// (Figures 7-9(c)).
func (a *Assignment) SizeHistogram() map[int]int {
	h := map[int]int{}
	for _, c := range a.Crossbars {
		h[c.Size]++
	}
	return h
}

// FanInOut holds a neuron's fanin+fanout split by implementation medium,
// the quantity plotted in Figures 7-9(d).
type FanInOut struct {
	Crossbar int // wires from/to crossbars
	Synapse  int // wires from/to discrete synapses
}

// Sum returns the total fanin+fanout.
func (f FanInOut) Sum() int { return f.Crossbar + f.Synapse }

// FanInOuts computes, for every neuron, the number of crossbar-side and
// synapse-side wire endpoints. A neuron contributes one crossbar wire per
// crossbar it drives (it is the source of at least one of the crossbar's
// connections) and one per crossbar that feeds it; it contributes one
// synapse wire per discrete synapse it touches.
func (a *Assignment) FanInOuts() []FanInOut {
	out := make([]FanInOut, a.N)
	for _, c := range a.Crossbars {
		drives := make(map[int]bool)
		fed := make(map[int]bool)
		for _, e := range c.Conns {
			drives[e.From] = true
			fed[e.To] = true
		}
		for i := range drives {
			out[i].Crossbar++
		}
		for j := range fed {
			out[j].Crossbar++
		}
	}
	for _, e := range a.Synapses {
		out[e.From].Synapse++
		out[e.To].Synapse++
	}
	return out
}

// Validate checks the structural invariants of an assignment against the
// source network: every crossbar size is positive and at least as large as
// its input and output sets, every crossbar connection exists in the
// network and lies within the crossbar's Inputs×Outputs block, crossbar
// connections and synapses are disjoint, and together they cover the
// network exactly.
func (a *Assignment) Validate(cm *graph.Conn) error {
	if a.N != cm.N() {
		return fmt.Errorf("xbar: assignment over %d neurons, network has %d", a.N, cm.N())
	}
	if a.Total != cm.NNZ() {
		return fmt.Errorf("xbar: assignment Total %d, network has %d connections", a.Total, cm.NNZ())
	}
	covered := graph.NewConn(cm.N())
	for k, c := range a.Crossbars {
		if c.Size <= 0 {
			return fmt.Errorf("xbar: crossbar %d has size %d", k, c.Size)
		}
		if len(c.Inputs) > c.Size || len(c.Outputs) > c.Size {
			return fmt.Errorf("xbar: crossbar %d size %d cannot host %d inputs × %d outputs",
				k, c.Size, len(c.Inputs), len(c.Outputs))
		}
		inSet := make(map[int]bool, len(c.Inputs))
		for _, i := range c.Inputs {
			inSet[i] = true
		}
		outSet := make(map[int]bool, len(c.Outputs))
		for _, o := range c.Outputs {
			outSet[o] = true
		}
		for _, e := range c.Conns {
			if !inSet[e.From] || !outSet[e.To] {
				return fmt.Errorf("xbar: crossbar %d connection %d→%d outside its block", k, e.From, e.To)
			}
			if !cm.Has(e.From, e.To) {
				return fmt.Errorf("xbar: crossbar %d connection %d→%d not in network", k, e.From, e.To)
			}
			if covered.Has(e.From, e.To) {
				return fmt.Errorf("xbar: connection %d→%d covered twice", e.From, e.To)
			}
			covered.Set(e.From, e.To)
		}
	}
	for _, e := range a.Synapses {
		if !cm.Has(e.From, e.To) {
			return fmt.Errorf("xbar: synapse %d→%d not in network", e.From, e.To)
		}
		if covered.Has(e.From, e.To) {
			return fmt.Errorf("xbar: connection %d→%d in both a crossbar and a synapse", e.From, e.To)
		}
		covered.Set(e.From, e.To)
	}
	if covered.NNZ() != cm.NNZ() {
		return fmt.Errorf("xbar: %d of %d connections covered", covered.NNZ(), cm.NNZ())
	}
	return nil
}

// FullCro builds the paper's baseline design: partition the neurons into
// ⌈N/s⌉ index-order groups with s = lib.Max() and realize every non-empty
// s×s block of the connection matrix with a maximum-size crossbar
// (Section 4.2). The result uses crossbars only — no discrete synapses.
// One pass over each row group buckets its connections by column group,
// so the cost is linear in the connections plus the blocks; crossbars come
// out row group by row group, column groups ascending, each block's
// connections in row order.
func FullCro(cm *graph.Conn, lib Library) *Assignment {
	s := lib.Max()
	n := cm.N()
	groups := (n + s - 1) / s
	group := func(g int) []int {
		lo, hi := g*s, (g+1)*s
		if hi > n {
			hi = n
		}
		idx := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			idx = append(idx, i)
		}
		return idx
	}
	a := &Assignment{N: n, Total: cm.NNZ()}
	blocks := make([][]graph.Edge, groups)
	var buf []int
	for gi := 0; gi < groups; gi++ {
		rows := group(gi)
		for _, i := range rows {
			buf = cm.RowNeighbors(i, buf[:0])
			for _, j := range buf {
				blocks[j/s] = append(blocks[j/s], graph.Edge{From: i, To: j})
			}
		}
		for gj, conns := range blocks {
			if len(conns) == 0 {
				continue
			}
			a.Crossbars = append(a.Crossbars, Crossbar{
				Size:    s,
				Inputs:  rows,
				Outputs: group(gj),
				Conns:   conns,
			})
			blocks[gj] = nil
		}
	}
	return a
}
