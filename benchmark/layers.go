package main

import "strings"

// endToEnd lists the metrics an untraced run reports, in BENCHMARK.json
// order. Every workload reports every one of them:
//
//	metric           isc / fullcro                 edit                     serve
//	latency_ms       one pass over tb1–tb3         p50 CompileDeltaCtx      mean cache-hit re-open
//	tail_latency_ms  slowest design of a pass      p95 CompileDeltaCtx      p90 interactive request
//	cold_compile_s   one design compile (mean)     base compile of tb2      p50 batch due → finished
//	wirelength_um …  tb1–tb3 of the seed           final design per chain   the sessions' designs
//
// The report lines before the result give the same run under the
// workload's own names (compile_s, edit_ms_p50/p90, full_routes,
// interactive_ms_p50/p99, batch_s_p50), each with its sample count.
var endToEnd = []string{
	"setup_s", "latency_ms", "tail_latency_ms", "cold_compile_s", "peak_rss_mb",
	"wirelength_um", "area_um2", "delay_ns", "max_bin_usage",
}

// perLayer lists the metrics a traced run reports. A layer the workload
// bypasses reports 0.
var perLayer = []string{
	// core: ISC over matrix eigensolves and kmeans.
	"core.isc_s", "core.isc_iterations", "core.crossbars", "core.synapses", "core.outlier_ratio",
	// xbar: the FullCro block partition (also ISC's automatic threshold).
	"xbar.fullcro_s", "xbar.crossbars",
	"netlist.build_s", "netlist.cells", "netlist.wires",
	"place.place_s", "place.field_s", "place.detail_s", "place.outer_rounds", "place.field_solves",
	"place.vcycles", "place.swap_candidates", "place.swaps_accepted",
	"route.route_s", "route.rounds", "route.ripups", "route.expansions", "route.overused_peak",
	"route.relaxations", "route.final_capacity",
	"cost.evaluate_s",
	// The delta path: the graph differ and CompileDeltaCtx's stages.
	"graph.diff_ms", "delta.plan_s", "delta.place_s", "delta.route_s", "delta.full_routes",
	"delta.rerouted_wires", "delta.route_reuse_frac", "delta.place_reuse_frac",
	"delta.cluster_reuse_frac", "delta.residual_conns",
	// Request codec, cache and artifact codec, and the server.
	"client.spec_ms", "client.roundtrip_ms_p50", "client.payload_bytes", "server.handler_ms_p50",
	"cache.hit_ratio", "cache.entries",
	"artifact.encode_ms", "artifact.decode_ms", "artifact.restore_ms", "artifact.bytes",
	"server.queue_ms_p50", "server.queue_ms_p90", "server.run_ms_p50", "server.cache_hits",
	"server.coalesced", "server.rejected", "server.delta_compiles", "server.delta_fallbacks",
	// Per design (draw 0) and for the whole run.
	"tb1.compile_s", "tb2.compile_s", "tb3.compile_s",
	"other_s", "trace.overhead_s",
}

// unitOf derives a per-layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_frac"):
		return "ratio"
	case strings.HasSuffix(name, "_bytes"), name == "artifact.bytes":
		return "bytes"
	}
	return "count"
}

// fillLayers reports every per-layer metric the workload did not set as 0.
func (r *run) fillLayers() {
	for _, n := range perLayer {
		if _, ok := r.metrics[n]; !ok {
			r.set(n, 0, unitOf(n))
		}
	}
}

// layer records a per-layer metric under the unit its name implies.
func (r *run) layer(name string, value float64) { r.set(name, value, unitOf(name)) }
