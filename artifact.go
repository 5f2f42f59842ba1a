package autoncs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

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
// rejected instead of misread, and bump the cache key's domain tag
// (CanonicalHash) with it. A result cached under an unchanged key stays a
// cache hit, and a hit never runs a compile, so its artifact would never be
// rewritten in the new format: every delta against that base would be
// refused as base_artifact_missing, and recompiling the base (the
// documented recovery) would only hit the cache again.
const artifactFormat = "autoncs-artifact/v3"

// artifactJSON is the artifact's envelope: the format tag and config vector
// as JSON strings, and three packed sections that encoding/json carries as
// base64 strings. The sections are sequences of encoding/binary varints
// (uvarint unless marked) and IEEE-754 float64 bits, 8 bytes little-endian:
//
//	assignment: N, Total, then the crossbar count and each crossbar as
//	            Size, input count, inputs, output count, outputs,
//	            connection count, (from, to) pairs; then the synapse
//	            count and (from, to) pairs
//	placement:  the cell count, each cell's x and y as float64, then
//	            MinX, MinY, MaxX, MaxY and HPWL as float64
//	routing:    FinalCapacity, the path count, then each path as its bin
//	            count, its first bin and each next bin as a zigzag varint
//	            step from the one before
//
// Wire lengths are not stored: Restore derives each from its path by the
// router's own rule (route.PathLength), so they cannot disagree with it.
type artifactJSON struct {
	Format       string `json:"format"`
	ConfigVector string `json:"config_vector"`
	Assignment   []byte `json:"assignment"`
	Placement    []byte `json:"placement,omitempty"`
	Routing      []byte `json:"routing,omitempty"`
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
	art := artifactJSON{
		Format:       artifactFormat,
		ConfigVector: ConfigVectorHashHex(cfg),
		Assignment:   packAssignment(res.Assignment),
	}
	if res.Placement != nil && res.Routing != nil {
		art.Placement = packPlacement(res.Placement)
		art.Routing = packRouting(res.Routing)
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
	// producing compile ran with SkipPhysical. Routing carries the final
	// capacity and the paths; Restore derives the rest.
	Placement *Placement
	Routing   *Routing
}

// DecodeArtifact parses an artifact produced by EncodeArtifact. Every count
// is checked against the bytes left in its section before anything is
// sized by it, so a short artifact cannot make the decode allocate for a
// large claim.
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
	a, err := unpackAssignment(art.Assignment)
	if err != nil {
		return nil, fmt.Errorf("autoncs: decoding artifact assignment: %w", err)
	}
	if err := checkAssignment(a); err != nil {
		return nil, fmt.Errorf("autoncs: artifact assignment: %w", err)
	}
	out := &Artifact{ConfigVector: art.ConfigVector, Assignment: a}
	if (len(art.Placement) == 0) != (len(art.Routing) == 0) {
		return nil, fmt.Errorf("autoncs: artifact carries placement xor routing; both or neither required")
	}
	if len(art.Placement) > 0 {
		if out.Placement, err = unpackPlacement(art.Placement); err != nil {
			return nil, fmt.Errorf("autoncs: decoding artifact placement: %w", err)
		}
		if out.Routing, err = unpackRouting(art.Routing); err != nil {
			return nil, fmt.Errorf("autoncs: decoding artifact routing: %w", err)
		}
	}
	return out, nil
}

// packer appends the fields of an artifact section.
type packer []byte

func (p *packer) uint(v int) { *p = binary.AppendUvarint(*p, uint64(v)) }

func (p *packer) float(f float64) { *p = binary.LittleEndian.AppendUint64(*p, math.Float64bits(f)) }

func (p *packer) ids(ids []int) {
	p.uint(len(ids))
	for _, v := range ids {
		p.uint(v)
	}
}

func (p *packer) edges(es []graph.Edge) {
	p.uint(len(es))
	for _, e := range es {
		p.uint(e.From)
		p.uint(e.To)
	}
}

func packAssignment(a *Assignment) []byte {
	var p packer
	p.uint(a.N)
	p.uint(a.Total)
	p.uint(len(a.Crossbars))
	for _, cb := range a.Crossbars {
		p.uint(cb.Size)
		p.ids(cb.Inputs)
		p.ids(cb.Outputs)
		p.edges(cb.Conns)
	}
	p.edges(a.Synapses)
	return p
}

func packPlacement(pl *Placement) []byte {
	p := make(packer, 0, 16*len(pl.X)+48)
	p.uint(len(pl.X))
	for i := range pl.X {
		p.float(pl.X[i])
		p.float(pl.Y[i])
	}
	for _, f := range [...]float64{pl.MinX, pl.MinY, pl.MaxX, pl.MaxY, pl.HPWL} {
		p.float(f)
	}
	return p
}

func packRouting(rt *Routing) []byte {
	var p packer
	p.uint(rt.FinalCapacity)
	p.uint(len(rt.Paths))
	for _, path := range rt.Paths {
		p.uint(len(path))
		for i, b := range path {
			if i == 0 {
				p.uint(b)
			} else {
				p = binary.AppendVarint(p, int64(b-path[i-1]))
			}
		}
	}
	return p
}

// unpacker reads the fields of an artifact section. The first malformed
// field sets err and empties the section, so every later read returns zero
// and every later count is 0: a decode checks err once, at the end.
type unpacker struct {
	b   []byte
	err error
}

func (u *unpacker) fail(err error) int {
	if u.err == nil {
		u.err = err
	}
	u.b = nil
	return 0
}

// uint reads a uvarint that fits an int32: a count, a size, a neuron id or
// a first bin.
func (u *unpacker) uint() int {
	v, n := binary.Uvarint(u.b)
	switch {
	case n <= 0:
		return u.fail(fmt.Errorf("truncated varint"))
	case v > math.MaxInt32:
		return u.fail(fmt.Errorf("value %d exceeds int32", v))
	}
	u.b = u.b[n:]
	return int(v)
}

// count reads the length of a list whose items take at least size bytes
// each, refusing one the rest of the section could not hold.
func (u *unpacker) count(size int) int {
	c := u.uint()
	if c > len(u.b)/size {
		return u.fail(fmt.Errorf("count %d exceeds the %d bytes left", c, len(u.b)))
	}
	return c
}

// next reads a path step and returns the bin it leads to from prev, which
// fits an int32: a sum that overflows int64 wraps far outside int32 and is
// refused with the rest.
func (u *unpacker) next(prev int) int {
	d, n := binary.Varint(u.b)
	if n <= 0 {
		return u.fail(fmt.Errorf("truncated varint"))
	}
	b := int64(prev) + d
	if b < math.MinInt32 || b > math.MaxInt32 {
		return u.fail(fmt.Errorf("path bin %d exceeds int32", b))
	}
	u.b = u.b[n:]
	return int(b)
}

func (u *unpacker) float() float64 {
	if len(u.b) < 8 {
		u.fail(fmt.Errorf("truncated float"))
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(u.b))
	u.b = u.b[8:]
	return f
}

func (u *unpacker) ids() []int {
	ids := make([]int, u.count(1))
	for i := range ids {
		ids[i] = u.uint()
	}
	return ids
}

func (u *unpacker) edges() []graph.Edge {
	es := make([]graph.Edge, u.count(2))
	for i := range es {
		es[i] = graph.Edge{From: u.uint(), To: u.uint()}
	}
	return es
}

// done returns the section's first error, or refuses bytes left over.
func (u *unpacker) done() error {
	if u.err == nil && len(u.b) > 0 {
		u.err = fmt.Errorf("%d trailing bytes", len(u.b))
	}
	return u.err
}

func unpackAssignment(b []byte) (*Assignment, error) {
	u := unpacker{b: b}
	a := &Assignment{N: u.uint(), Total: u.uint()}
	a.Crossbars = make([]xbar.Crossbar, u.count(4))
	for k := range a.Crossbars {
		cb := &a.Crossbars[k]
		cb.Size = u.uint()
		cb.Inputs = u.ids()
		cb.Outputs = u.ids()
		cb.Conns = u.edges()
	}
	a.Synapses = u.edges()
	return a, u.done()
}

func unpackPlacement(b []byte) (*Placement, error) {
	u := unpacker{b: b}
	n := u.count(16)
	pl := &Placement{X: make([]float64, n), Y: make([]float64, n)}
	for i := range pl.X {
		pl.X[i], pl.Y[i] = u.float(), u.float()
	}
	pl.MinX, pl.MinY, pl.MaxX, pl.MaxY, pl.HPWL = u.float(), u.float(), u.float(), u.float(), u.float()
	return pl, u.done()
}

func unpackRouting(b []byte) (*Routing, error) {
	u := unpacker{b: b}
	rt := &Routing{FinalCapacity: u.uint()}
	rt.Paths = make([][]int, u.count(1))
	for w := range rt.Paths {
		path := make([]int, u.count(1))
		for i := range path {
			if i == 0 {
				path[i] = u.uint()
			} else {
				path[i] = u.next(path[i-1])
			}
		}
		rt.Paths[w] = path
	}
	return rt, u.done()
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
	edges := len(a.Synapses)
	for _, cb := range a.Crossbars {
		edges += len(cb.Conns)
	}
	covered := make(map[graph.Edge]bool, edges)
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
// deterministic function of the stored state. Each wire's length is
// derived from its path by the router's rule (route.PathLength). A box
// whose grid would exceed route.MaxGridBins is refused before anything is
// sized by it, and so is a routing the router could not have produced
// (route.CheckPaths): a path that misses its wire's pins or jumps between
// non-adjacent bins.
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
	rt.WireLength = make([]float64, len(rt.Paths))
	for w, path := range rt.Paths {
		rt.WireLength[w] = route.PathLength(p, nl.Wires[w], path, cfg.Route.Theta)
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
