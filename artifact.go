package autoncs

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/netlist"
	"repro/internal/route"
	"repro/internal/xbar"
)

// The compile artifact is the resumable form of a Result: everything a
// delta recompile needs to warm-start from a previous compile — the hybrid
// assignment, the placement coordinates, and the committed routing paths —
// plus the config vector the compile ran under, so a consumer can refuse to
// resume under an incompatible configuration. Derivable state (the netlist,
// the routing grid's dimensions, the congestion map, the cost report) is
// rebuilt on restore rather than stored; diagnostic state (stage times, the
// ISC trace) is dropped.

// artifactFormat tags the serialized artifact. Bump it when the layout or
// the meaning of any stored field changes, so stale cached artifacts are
// rejected instead of misread.
const artifactFormat = "autoncs-artifact/v2"

type artifactJSON struct {
	Format       string          `json:"format"`
	ConfigVector string          `json:"config_vector"`
	Assignment   json.RawMessage `json:"assignment"`
	Placement    *placementJSON  `json:"placement,omitempty"`
	Routing      *routingJSON    `json:"routing,omitempty"`
}

type placementJSON struct {
	X    []float64 `json:"x"`
	Y    []float64 `json:"y"`
	MinX float64   `json:"min_x"`
	MinY float64   `json:"min_y"`
	MaxX float64   `json:"max_x"`
	MaxY float64   `json:"max_y"`
	HPWL float64   `json:"hpwl"`
}

type routingJSON struct {
	FinalCapacity int       `json:"final_capacity"`
	Paths         [][]int   `json:"paths"`
	WireLength    []float64 `json:"wire_length"`
}

// EncodeArtifact serializes the resumable portion of a compile result,
// stamped with the config vector of the configuration that produced it. The
// encoding is deterministic: one (Result, Config) pair always yields the
// same bytes. Results compiled with SkipPhysical produce an artifact with
// no placement or routing section; a delta resumed from one re-runs the
// physical stages from scratch.
func EncodeArtifact(res *Result, cfg Config) ([]byte, error) {
	if res == nil || res.Assignment == nil {
		return nil, fmt.Errorf("autoncs: encoding artifact of a result with no assignment")
	}
	var ab bytes.Buffer
	if err := res.Assignment.WriteJSON(&ab); err != nil {
		return nil, fmt.Errorf("autoncs: encoding artifact assignment: %w", err)
	}
	art := artifactJSON{
		Format:       artifactFormat,
		ConfigVector: ConfigVectorHashHex(cfg),
		Assignment:   json.RawMessage(ab.Bytes()),
	}
	if res.Placement != nil && res.Routing != nil {
		pl := res.Placement
		art.Placement = &placementJSON{
			X: pl.X, Y: pl.Y,
			MinX: pl.MinX, MinY: pl.MinY, MaxX: pl.MaxX, MaxY: pl.MaxY,
			HPWL: pl.HPWL,
		}
		rt := res.Routing
		art.Routing = &routingJSON{
			FinalCapacity: rt.FinalCapacity,
			Paths:         rt.Paths,
			WireLength:    rt.WireLength,
		}
	}
	data, err := json.Marshal(art)
	if err != nil {
		return nil, fmt.Errorf("autoncs: encoding artifact: %w", err)
	}
	return data, nil
}

// Artifact is a decoded compile artifact: the resumable pieces plus the
// config vector they were produced under. Restore turns it back into a
// Result.
type Artifact struct {
	// ConfigVector is the lowercase-hex ConfigVectorHash of the producing
	// configuration. A delta recompile must run under a config with the
	// same vector, or the warm-start data is meaningless.
	ConfigVector string
	// Assignment is the hybrid mapping.
	Assignment *Assignment
	// Placement and Routing are the physical-design artifacts, nil when the
	// producing compile ran with SkipPhysical.
	Placement *Placement
	Routing   *Routing
}

// DecodeArtifact parses an artifact produced by EncodeArtifact.
func DecodeArtifact(data []byte) (*Artifact, error) {
	var art artifactJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&art); err != nil {
		return nil, fmt.Errorf("autoncs: decoding artifact: %w", err)
	}
	if art.Format != artifactFormat {
		return nil, fmt.Errorf("autoncs: artifact format %q, want %q", art.Format, artifactFormat)
	}
	if len(art.ConfigVector) != 64 {
		return nil, fmt.Errorf("autoncs: artifact config vector %q is not a sha256 hex digest", art.ConfigVector)
	}
	a, err := xbar.ReadJSON(bytes.NewReader(art.Assignment))
	if err != nil {
		return nil, fmt.Errorf("autoncs: decoding artifact assignment: %w", err)
	}
	if err := checkAssignment(a); err != nil {
		return nil, fmt.Errorf("autoncs: artifact assignment: %w", err)
	}
	out := &Artifact{ConfigVector: art.ConfigVector, Assignment: a}
	if (art.Placement == nil) != (art.Routing == nil) {
		return nil, fmt.Errorf("autoncs: artifact carries placement xor routing; both or neither required")
	}
	if art.Placement != nil {
		p := art.Placement
		if len(p.X) != len(p.Y) {
			return nil, fmt.Errorf("autoncs: artifact placement has %d x, %d y coordinates", len(p.X), len(p.Y))
		}
		out.Placement = &Placement{
			X: p.X, Y: p.Y,
			MinX: p.MinX, MinY: p.MinY, MaxX: p.MaxX, MaxY: p.MaxY,
			HPWL: p.HPWL,
		}
		r := art.Routing
		if len(r.Paths) != len(r.WireLength) {
			return nil, fmt.Errorf("autoncs: artifact routing has %d paths, %d wire lengths", len(r.Paths), len(r.WireLength))
		}
		out.Routing = &Routing{
			FinalCapacity: r.FinalCapacity,
			Paths:         r.Paths,
			WireLength:    r.WireLength,
		}
	}
	return out, nil
}

// checkAssignment verifies that a decoded assignment is a valid mapping of
// the network it implies, before anything indexes by its neuron ids: at
// most graph.MaxLoadNeurons neurons, every id in range, positive crossbar
// sizes hosting at most Size inputs and outputs, crossbar connections inside
// their block, nothing covered twice, and Total equal to the connections
// covered. These are Assignment.Validate's checks against BaseNetwork(a),
// made in memory proportional to the artifact instead of two N² bitsets,
// so a few bytes claiming a large N cannot make a decode allocate for it.
func checkAssignment(a *Assignment) error {
	if a.N > graph.MaxLoadNeurons {
		return fmt.Errorf("%d neurons exceed the %d-neuron cap", a.N, graph.MaxLoadNeurons)
	}
	inRange := func(i int) bool { return i >= 0 && i < a.N }
	covered := make(map[graph.Edge]bool)
	cover := func(e graph.Edge) error {
		if !inRange(e.From) || !inRange(e.To) {
			return fmt.Errorf("connection %d→%d names a neuron outside 0..%d", e.From, e.To, a.N-1)
		}
		if covered[e] {
			return fmt.Errorf("connection %d→%d covered twice", e.From, e.To)
		}
		covered[e] = true
		return nil
	}
	for k, cb := range a.Crossbars {
		if cb.Size <= 0 || len(cb.Inputs) > cb.Size || len(cb.Outputs) > cb.Size {
			return fmt.Errorf("crossbar %d of size %d cannot host %d inputs × %d outputs",
				k, cb.Size, len(cb.Inputs), len(cb.Outputs))
		}
		block := make(map[int]int, len(cb.Inputs)+len(cb.Outputs)) // bit 0: input, bit 1: output
		for side, ids := range [2][]int{cb.Inputs, cb.Outputs} {
			for _, n := range ids {
				if !inRange(n) {
					return fmt.Errorf("crossbar %d names neuron %d outside 0..%d", k, n, a.N-1)
				}
				block[n] |= 1 << side
			}
		}
		for _, e := range cb.Conns {
			if err := cover(e); err != nil {
				return fmt.Errorf("crossbar %d: %w", k, err)
			}
			if block[e.From]&1 == 0 || block[e.To]&2 == 0 {
				return fmt.Errorf("crossbar %d connection %d→%d outside its block", k, e.From, e.To)
			}
		}
	}
	for _, e := range a.Synapses {
		if err := cover(e); err != nil {
			return fmt.Errorf("synapse: %w", err)
		}
	}
	if a.Total != len(covered) {
		return fmt.Errorf("assignment total %d, %d connections covered", a.Total, len(covered))
	}
	return nil
}

// Restore rebuilds a full Result from the artifact under cfg, which must
// carry the same config vector the artifact was stamped with (the caller
// checks that — Restore only needs cfg for the derivable state). The
// netlist is rebuilt from the assignment, the routing grid's dimensions
// from the placement box and cfg.Route.Theta, the routed total and
// congestion map from the stored paths, and the cost report re-evaluated;
// all are bit-identical to the original compile's because every one is a
// deterministic function of the stored state. A box whose grid would
// exceed route.MaxGridBins is refused before anything is sized by it, and
// so is a routing the router could not have produced (route.CheckPaths):
// a path that misses its wire's pins or jumps between non-adjacent bins,
// or a length that differs from its path's.
func (a *Artifact) Restore(cfg Config) (*Result, error) {
	res := &Result{Assignment: a.Assignment, Device: cfg.Device}
	if a.Placement == nil {
		return res, nil
	}
	nl, err := netlist.Build(a.Assignment, cfg.Device)
	if err != nil {
		return nil, fmt.Errorf("autoncs: restoring artifact netlist: %w", err)
	}
	if len(nl.Cells) != len(a.Placement.X) {
		return nil, fmt.Errorf("autoncs: artifact placement covers %d cells, netlist has %d",
			len(a.Placement.X), len(nl.Cells))
	}
	if len(nl.Wires) != len(a.Routing.Paths) {
		return nil, fmt.Errorf("autoncs: artifact routing covers %d wires, netlist has %d",
			len(a.Routing.Paths), len(nl.Wires))
	}
	p, rt := a.Placement, a.Routing
	var ok bool
	if rt.Cols, rt.Rows, ok = route.GridDims(p.Width(), p.Height(), cfg.Route.Theta); !ok {
		return nil, fmt.Errorf("autoncs: artifact placement box %g×%g µm at θ=%g µm exceeds the %d-bin routing grid cap",
			p.Width(), p.Height(), cfg.Route.Theta, route.MaxGridBins)
	}
	if err := route.CheckPaths(nl, p, cfg.Route.Theta, rt.Paths, rt.WireLength); err != nil {
		return nil, fmt.Errorf("autoncs: artifact routing: %w", err)
	}
	rt.Total = 0
	for _, l := range rt.WireLength {
		rt.Total += l
	}
	rt.Usage = make([]int, rt.Cols*rt.Rows)
	for _, path := range rt.Paths {
		for _, b := range path {
			rt.Usage[b]++
		}
	}
	rep, err := cost.Evaluate(nl, a.Placement, rt, cfg.Device, cfg.Cost)
	if err != nil {
		return nil, fmt.Errorf("autoncs: restoring artifact cost report: %w", err)
	}
	res.Netlist, res.Placement, res.Routing, res.Report = nl, a.Placement, rt, rep
	return res, nil
}
