// Package client is the Go client of the autoncsd compile service and the
// authoritative definition of its JSON wire contract. The types here are
// shared by the server (internal/server), the remote mode of cmd/autoncs,
// and the end-to-end tests; docs/server.md documents the same contract for
// non-Go callers.
package client

import (
	"encoding/json"
	"fmt"
	"strings"
)

// CompileRequest is the body of POST /v1/compile. Exactly one network
// source (Net, Random, or Testbench) must be set; the remaining fields are
// the flow knobs a remote caller may tune — everything else runs with
// autoncs.DefaultConfig. Zero values mean the same defaults as the
// library: Seed 0 is normalized to 1 (DefaultConfig's seed) so the
// "default compile" of a given network has one cache key, not two.
type CompileRequest struct {
	// Net is the network in the autoncs-net v1 text format.
	Net string `json:"net,omitempty"`
	// Random generates a random symmetric sparse network server-side.
	Random *RandomSpec `json:"random,omitempty"`
	// Testbench selects one of the paper's Hopfield benchmarks (1-3),
	// built server-side with Seed.
	Testbench int `json:"testbench,omitempty"`

	// Seed drives the flow's randomized steps (and testbench training).
	Seed int64 `json:"seed,omitempty"`
	// SelectionQuantile is Config.SelectionQuantile (0 = paper's 0.75,
	// negative disables partial selection).
	SelectionQuantile float64 `json:"selection_quantile,omitempty"`
	// UtilizationThreshold is Config.UtilizationThreshold (0 = auto,
	// negative disables the stopping rule).
	UtilizationThreshold float64 `json:"utilization_threshold,omitempty"`
	// SkipPhysical stops after clustering.
	SkipPhysical bool `json:"skip_physical,omitempty"`
	// FullCro runs the paper's maximum-size-crossbar baseline flow
	// instead of ISC. Baseline results are cached under their own keys.
	FullCro bool `json:"full_cro,omitempty"`

	// Multilevel enables the multilevel clustering engine
	// (Config.Multilevel); the three knobs below refine it and are inert
	// without it. Zero values mean the library defaults.
	Multilevel bool `json:"multilevel,omitempty"`
	// MultilevelCutoff is Config.MultilevelCutoff (0 = default).
	MultilevelCutoff int `json:"multilevel_cutoff,omitempty"`
	// CoarsenRatio is Config.CoarsenRatio (0 = default).
	CoarsenRatio float64 `json:"coarsen_ratio,omitempty"`
	// MultilevelLevels is Config.MultilevelLevels (0 = adaptive).
	MultilevelLevels int `json:"multilevel_levels,omitempty"`

	// Base asks for an incremental delta recompile: the 64-char hex result
	// key of a previous compile of a nearby network (the X-Autoncs-Key of
	// its result). The daemon restores that compile's cached artifact and
	// recompiles only the edit's impact region; if the edit ratio exceeds
	// the daemon's cutoff it silently falls back to a full compile (visible
	// as the response Key being the plain content address instead of the
	// delta-domain one). The base compile must have run under the same
	// config vector — a mismatch is a 409 with code "base_config_mismatch".
	// The query parameter ?base= is an equivalent spelling. Cannot combine
	// with FullCro.
	Base string `json:"base,omitempty"`

	// Priority is the scheduling class: PriorityInteractive jumps the
	// queue ahead of PriorityBatch work. Empty defaults to interactive for
	// waited submissions (?wait=1) and batch for fire-and-forget ones.
	// Priority affects only scheduling order, never the result bytes — it
	// is not part of the compile's cache key, so an interactive and a
	// batch submission of the same network coalesce onto one compile.
	Priority string `json:"priority,omitempty"`
}

// The two job priorities. Interactive work is drained ahead of batch work
// whenever both are queued; neither is ever starved.
const (
	PriorityInteractive = "interactive"
	PriorityBatch       = "batch"
)

// RandomSpec describes a server-side generated random sparse network.
type RandomSpec struct {
	N        int     `json:"n"`
	Sparsity float64 `json:"sparsity"`
	Seed     int64   `json:"seed"`
}

// Job states, in lifecycle order.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// JobStatus is the body of GET /v1/jobs/{id} and of the POST /v1/compile
// response.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Key is the content address of the compile (lowercase hex); two jobs
	// with the same key are the same computation.
	Key string `json:"key"`
	// BaseKey is the result key of the base compile a delta recompile
	// edited, set exactly when the job ran (or will run) as a delta. A
	// ?base= submission that fell back to a full compile has no BaseKey —
	// that is how a client detects the fallback.
	BaseKey string `json:"base_key,omitempty"`
	// Cached reports that the job was answered from the result cache
	// without running the flow.
	Cached bool `json:"cached"`
	// Coalesced reports that the job attached to another submission's
	// in-flight compile of the same key instead of queueing its own; the
	// result bytes are identical either way.
	Coalesced bool `json:"coalesced,omitempty"`
	// Priority is the scheduling class the job ran under.
	Priority string `json:"priority,omitempty"`
	// Error is set when State is failed or cancelled.
	Error string `json:"error,omitempty"`

	SubmittedAt string `json:"submitted_at"`
	StartedAt   string `json:"started_at,omitempty"`
	FinishedAt  string `json:"finished_at,omitempty"`
	// ElapsedSeconds is the compile wall time (0 for cache hits).
	ElapsedSeconds float64 `json:"elapsed_seconds,omitempty"`
	// StageTimes breaks ElapsedSeconds down by pipeline stage.
	StageTimes map[string]float64 `json:"stage_times_seconds,omitempty"`

	// ResultURL points at GET /v1/results/{id} once State is done.
	ResultURL string `json:"result_url,omitempty"`
	// Result is the full result payload, embedded when the request asked
	// to wait (POST /v1/compile?wait=1) and the job finished: the stored
	// payload verbatim, byte-identical to GET /v1/results/{id}. It must
	// stay the last field, because the daemon writes it after the other
	// members without passing it through encoding/json.
	Result json.RawMessage `json:"result,omitempty"`
}

// Result is the body of GET /v1/results/{id}: the deterministic portion of
// an autoncs compile. It deliberately carries no wall times — the payload
// is the unit of content-addressed caching, so its bytes must be a pure
// function of the compile inputs (timings live on JobStatus instead).
type Result struct {
	Key         string `json:"key"`
	Neurons     int    `json:"neurons"`
	Connections int    `json:"connections"`

	Crossbars      int     `json:"crossbars"`
	Synapses       int     `json:"synapses"`
	OutlierRatio   float64 `json:"outlier_ratio"`
	AvgUtilization float64 `json:"avg_utilization"`
	AvgPreference  float64 `json:"avg_preference"`
	ISCIterations  int     `json:"isc_iterations"`
	// SizeHistogram maps crossbar size (as a decimal string, JSON object
	// keys being strings) to instance count.
	SizeHistogram map[string]int `json:"size_histogram,omitempty"`

	// Report is the physical-design cost report (absent with
	// skip_physical).
	Report *Report `json:"report,omitempty"`

	// Assignment is the full hybrid mapping in the xbar JSON schema (the
	// same format cmd/autoncs -dump writes).
	Assignment json.RawMessage `json:"assignment"`
}

// Report mirrors autoncs.CostReport on the wire.
type Report struct {
	Wirelength float64 `json:"wirelength_um"`
	Area       float64 `json:"area_um2"`
	AvgDelay   float64 `json:"avg_delay_ns"`
	MaxDelay   float64 `json:"max_delay_ns"`
	Cost       float64 `json:"cost"`
	Wires      int     `json:"wires"`
}

// Metrics is the body of GET /metrics: the serving counters plus the
// aggregated internal/obs flow metrics.
//
// Counter semantics: JobsAccepted counts every non-rejected submission;
// within it, JobsCompleted counts compiles run to done (one per compile,
// however many submissions shared it), JobsCoalesced counts submissions
// answered by attaching to another submission's in-flight compile, and
// JobsCacheHits counts submissions answered from the result cache. So
// JobsCompleted is the daemon's actual compile throughput, and
// JobsCoalesced + JobsCacheHits is the work deduplication saved.
type Metrics struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`

	WorkerSlots   int `json:"worker_slots"`
	QueueCapacity int `json:"queue_capacity"`
	// QueueDepth counts admitted leader jobs waiting for a worker slot,
	// across both priorities; QueueInteractive/QueueBatch split it.
	QueueDepth       int `json:"queue_depth"`
	QueueInteractive int `json:"queue_interactive"`
	QueueBatch       int `json:"queue_batch"`
	InFlight         int `json:"in_flight"`
	// Flights counts the entries of the single-flight table: compiles
	// queued or running that new identical submissions would attach to.
	Flights int `json:"flights"`

	JobsAccepted  int64 `json:"jobs_accepted"`
	JobsCompleted int64 `json:"jobs_completed"`
	JobsFailed    int64 `json:"jobs_failed"`
	JobsCancelled int64 `json:"jobs_cancelled"`
	JobsRejected  int64 `json:"jobs_rejected"`
	JobsCacheHits int64 `json:"jobs_cache_hits"`
	JobsCoalesced int64 `json:"jobs_coalesced"`

	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	CacheEntries int   `json:"cache_entries"`

	// RetryAfterSeconds is the daemon's current Retry-After estimate — the
	// value a 429 rejection would carry right now, derived from the last
	// terminal compile's duration.
	RetryAfterSeconds float64 `json:"retry_after_seconds"`

	// Compiles and StageSeconds aggregate the flow's own observer stream
	// (internal/obs) across every job the daemon has run.
	Compiles     int                `json:"compiles"`
	StageSeconds map[string]float64 `json:"stage_seconds"`

	// RequestRecords counts the per-request timing records emitted (one
	// per terminal job); LastRequest is the most recent one.
	RequestRecords int64          `json:"request_records"`
	LastRequest    *RequestTiming `json:"last_request,omitempty"`

	// DeltaCompiles counts compiles run as incremental deltas (?base=
	// submissions under the edit-ratio cutoff); DeltaFallbacks counts
	// ?base= submissions whose edit ratio exceeded the cutoff and were
	// recompiled in full instead. LastDelta is the per-stage reuse
	// breakdown of the most recent delta recompile.
	DeltaCompiles  int64         `json:"delta_compiles,omitempty"`
	DeltaFallbacks int64         `json:"delta_fallbacks,omitempty"`
	LastDelta      *DeltaSummary `json:"last_delta,omitempty"`
}

// DeltaSummary mirrors obs.DeltaStats on the wire: how much of the base
// compile one delta recompile reused, per stage. Every counter is
// deterministic for any worker count.
type DeltaSummary struct {
	Edits          int     `json:"edits"`
	AddedEdges     int     `json:"added_edges"`
	RemovedEdges   int     `json:"removed_edges"`
	TouchedNeurons int     `json:"touched_neurons"`
	EditRatio      float64 `json:"edit_ratio"`

	BaseCrossbars    int     `json:"base_crossbars"`
	KeptCrossbars    int     `json:"kept_crossbars"`
	DirtyCrossbars   int     `json:"dirty_crossbars"`
	NewCrossbars     int     `json:"new_crossbars"`
	ResidualConns    int     `json:"residual_conns"`
	ClusterReuseFrac float64 `json:"cluster_reuse_frac"`

	Cells          int     `json:"cells"`
	SeededCells    int     `json:"seeded_cells"`
	PlaceReuseFrac float64 `json:"place_reuse_frac"`

	Wires          int     `json:"wires"`
	ReusedWires    int     `json:"reused_wires"`
	ReroutedWires  int     `json:"rerouted_wires"`
	RouteReuseFrac float64 `json:"route_reuse_frac"`
	FullRoute      bool    `json:"full_route,omitempty"`
}

// RequestTiming is one flat per-request latency record: where a job's wall
// time went (admission wait, queue wait, compile run) and how it was
// answered (fresh compile, coalesced, or cache hit). Every field is a
// scalar so a stream of these dumps straight into CSV — see CSVRecord —
// for offline serving-latency analysis.
type RequestTiming struct {
	Job       string `json:"job"`
	Key       string `json:"key"`
	Priority  string `json:"priority"`
	Coalesced bool   `json:"coalesced"`
	CacheHit  bool   `json:"cache_hit"`
	State     string `json:"state"`

	SubmittedAt      string  `json:"submitted_at"`
	AdmitWaitSeconds float64 `json:"admit_wait_seconds"`
	QueueWaitSeconds float64 `json:"queue_wait_seconds"`
	RunSeconds       float64 `json:"run_seconds"`
	TotalSeconds     float64 `json:"total_seconds"`
}

// RequestTimingCSVHeader returns the CSV header row matching CSVRecord's
// column order.
func RequestTimingCSVHeader() string {
	return "job,key,priority,coalesced,cache_hit,state,submitted_at,admit_wait_seconds,queue_wait_seconds,run_seconds,total_seconds"
}

// CSVRecord renders the record as one CSV row. No field can contain a
// comma, a quote, or a newline (ids, hex keys, enum strings, RFC 3339
// timestamps, numbers), so no quoting is needed.
func (t RequestTiming) CSVRecord() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s,%s,%s,%t,%t,%s,%s,%.6f,%.6f,%.6f,%.6f",
		t.Job, t.Key, t.Priority, t.Coalesced, t.CacheHit, t.State,
		t.SubmittedAt, t.AdmitWaitSeconds, t.QueueWaitSeconds, t.RunSeconds, t.TotalSeconds)
	return b.String()
}

// Health is the body of GET /healthz.
type Health struct {
	Status        string  `json:"status"` // "ok" or "draining"
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// errorBody is the JSON envelope of every non-2xx response. Code is a
// stable machine-readable discriminator, set on errors a client is
// expected to branch on (see the Code* constants); Error is the
// human-readable message.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// Stable error codes (errorBody.Code / APIError.Code). HTTP status codes
// alone are ambiguous — a 409 may mean "job not done" or "incompatible
// delta base" — so errors a client branches on carry one of these.
const (
	// CodeBaseArtifactMissing: the ?base= key has no usable cached artifact
	// on the daemon (the base compile never ran here, its artifact was
	// evicted, or it was stored in a format this daemon no longer reads).
	// Recover by recompiling the base in full: the daemon drops the base's
	// cached result along with the 404, so the recompile really runs and
	// stores a fresh artifact. HTTP 404.
	CodeBaseArtifactMissing = "base_artifact_missing"
	// CodeBaseConfigMismatch: the base compile ran under a different config
	// vector than the delta request, so its artifact cannot seed this
	// compile. Re-submit with the base's configuration or recompile in
	// full. HTTP 409.
	CodeBaseConfigMismatch = "base_config_mismatch"
	// CodeBaseSizeMismatch: the edited network's neuron count differs from
	// the base compile's — resizing edits need a full compile. HTTP 409.
	CodeBaseSizeMismatch = "base_size_mismatch"
)
