package server

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"

	"repro"
	"repro/client"
	"repro/internal/cache"
)

// maxRequestNeurons bounds the size of a network a single request may ask
// the daemon to compile. The flow is superlinear in n, so this is the
// service's overload guard, distinct from graph.MaxLoadNeurons (the text
// parser's allocation guard).
const maxRequestNeurons = 4096

// compileSpec is a validated, materialized compile request: the network,
// the full config, and the content address under which the result is
// cached.
type compileSpec struct {
	net     *autoncs.Network
	cfg     autoncs.Config
	fullCro bool
	key     cache.Key

	// Delta fields, set when the submission asked for an incremental
	// recompile (?base= / CompileRequest.Base) and survived the handler's
	// artifact resolution and edit-ratio cutoff. key is then the
	// delta-domain address; baseKey is the base compile's result key, and
	// base its decoded artifact. A fallen-back submission carries none of
	// these — it is an ordinary full compile.
	delta   bool
	baseKey cache.Key
	base    *autoncs.Artifact
}

// buildSpec materializes a wire request under the service's size limit.
// The materialization itself lives on client.CompileRequest.Spec so a
// client derives the exact same cache key the daemon serves under. Every
// validation failure is a client-side (HTTP 400)
// error. A delta request's artifact resolution happens separately in
// resolveDelta — it needs the daemon's cache, which Spec has no business
// touching.
func buildSpec(req client.CompileRequest) (*compileSpec, error) {
	sp, err := req.Spec(maxRequestNeurons)
	if err != nil {
		return nil, err
	}
	out := &compileSpec{net: sp.Net, cfg: sp.Config, fullCro: sp.FullCro, key: cache.Key(sp.Key)}
	if sp.Delta {
		out.delta = true
		out.baseKey = cache.Key(sp.Base)
	}
	return out, nil
}

// run executes the compile under ctx with the given worker-pool bound and
// observer.
func (sp *compileSpec) run(ctx context.Context, workers int, ob autoncs.Observer) (*autoncs.Result, error) {
	cfg := sp.cfg
	cfg.Workers = workers
	cfg.Observer = ob
	if sp.base != nil {
		prev, err := sp.base.Restore(sp.cfg)
		if err != nil {
			return nil, fmt.Errorf("restoring base artifact %s: %w", sp.baseKey.Hex(), err)
		}
		res, _, err := autoncs.CompileDeltaCtx(ctx, prev, sp.net, cfg)
		return res, err
	}
	if sp.fullCro {
		return autoncs.CompileFullCroCtx(ctx, sp.net, cfg)
	}
	return autoncs.CompileCtx(ctx, sp.net, cfg)
}

// encodeResult renders the deterministic portion of a compile result as
// the canonical cache payload. Deterministic by construction: struct
// fields marshal in declaration order, map keys sort, and the assignment
// JSON is a pure function of the assignment — so re-encoding a recomputed
// Result yields bit-identical bytes, which is what makes cached responses
// indistinguishable from fresh ones. The assignment is encoded compact
// once, the form the payload carries it in.
func encodeResult(sp *compileSpec, res *autoncs.Result) ([]byte, error) {
	asg, err := res.Assignment.CompactJSON()
	if err != nil {
		return nil, fmt.Errorf("encoding assignment: %w", err)
	}
	hist := map[string]int{}
	for size, count := range res.Assignment.SizeHistogram() {
		hist[strconv.Itoa(size)] = count
	}
	out := client.Result{
		Key:            sp.key.Hex(),
		Neurons:        sp.net.N(),
		Connections:    res.Assignment.Total,
		Crossbars:      len(res.Assignment.Crossbars),
		Synapses:       len(res.Assignment.Synapses),
		OutlierRatio:   res.Assignment.OutlierRatio(),
		AvgUtilization: res.Assignment.AvgUtilization(),
		AvgPreference:  res.Assignment.AvgPreference(),
		ISCIterations:  len(res.Trace),
		SizeHistogram:  hist,
		Assignment:     json.RawMessage(asg),
	}
	if res.Report != nil {
		out.Report = &client.Report{
			Wirelength: res.Report.Wirelength,
			Area:       res.Report.Area,
			AvgDelay:   res.Report.AvgDelay,
			MaxDelay:   res.Report.MaxDelay,
			Cost:       res.Report.Cost,
			Wires:      res.Report.Wires,
		}
	}
	return json.Marshal(out)
}
