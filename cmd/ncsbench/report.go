package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	autoncs "repro"
)

// StageStats is one experiment stage of a BenchReport: wall time, the
// allocation counters of the Go runtime across the stage, and the paper
// metrics the stage produced.
type StageStats struct {
	Name        string  `json:"name"`
	WallSeconds float64 `json:"wall_seconds"`
	// Allocs and AllocBytes are the runtime.MemStats deltas (Mallocs,
	// TotalAlloc) over the stage: total heap objects and bytes allocated,
	// regardless of later collection.
	Allocs     uint64             `json:"allocs"`
	AllocBytes uint64             `json:"alloc_bytes"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
	// StageTimes breaks the stage's wall time down by compile pipeline
	// stage (clustering, netlist, place, route, cost), in seconds — filled
	// from Result.StageTimes by the stages that run the full flow.
	StageTimes map[string]float64 `json:"stage_times_seconds,omitempty"`
}

// Baseline pins the pre-optimization reference measurement of one stage so
// the report carries its own comparison. Stage names which stage the ratios
// were computed against (-baseline-stage; compile2000 when omitted).
type Baseline struct {
	Ref         string  `json:"ref,omitempty"`
	Stage       string  `json:"stage,omitempty"`
	WallSeconds float64 `json:"wall_seconds"`
	Allocs      uint64  `json:"allocs"`
}

// BenchReport is the machine-readable run record written by -benchout.
// README.md ("Performance") documents how to read it.
type BenchReport struct {
	GeneratedBy string `json:"generated_by"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"num_cpu"`
	// GOMAXPROCS is the scheduler's parallelism cap at run time — the
	// number that actually bounds the worker pools, as opposed to NumCPU.
	GOMAXPROCS int `json:"gomaxprocs"`
	// GitCommit and GitDirty identify the source the binary was built from
	// (debug.BuildInfo vcs stamps; empty when built outside a checkout).
	GitCommit string       `json:"git_commit,omitempty"`
	GitDirty  bool         `json:"git_dirty,omitempty"`
	Seed      int64        `json:"seed"`
	Workers   int          `json:"workers"`
	Quick     bool         `json:"quick"`
	Large     bool         `json:"large"`
	Stages    []StageStats `json:"stages"`
	// Baseline and the two ratios are present when -baseline-wall /
	// -baseline-allocs were given and the -baseline-stage stage ran:
	// SpeedupWall = baseline wall / current wall, AllocsRatio = baseline
	// allocs / current allocs (higher is better for both).
	Baseline    *Baseline `json:"baseline,omitempty"`
	SpeedupWall float64   `json:"speedup_wall,omitempty"`
	AllocsRatio float64   `json:"allocs_ratio,omitempty"`
}

// reporter accumulates per-stage stats while the experiments print their
// terminal renditions. A nil reporter is inert, so the instrumentation
// costs nothing when -benchout is unset.
type reporter struct {
	rep   BenchReport
	stage *StageStats
	// start and before open the running stage's clock and allocation
	// counters; restartClock moves them past the stage's set-up.
	start  time.Time
	before runtime.MemStats
}

func newReporter(seed int64, workers int, quick, large bool) *reporter {
	commit, dirty := vcsStamp()
	return &reporter{rep: BenchReport{
		GeneratedBy: "cmd/ncsbench",
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GitCommit:   commit,
		GitDirty:    dirty,
		Seed:        seed,
		Workers:     workers,
		Quick:       quick,
		Large:       large,
	}}
}

// vcsStamp extracts the commit the binary was built from out of the build
// info the Go toolchain embeds. `go run`/`go test` binaries and builds
// outside a git checkout carry no stamp; both report empty.
func vcsStamp() (commit string, dirty bool) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "", false
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			commit = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	return commit, dirty
}

// run times f as one named stage, capturing the allocation deltas.
func (r *reporter) run(name string, f func() error) error {
	if r == nil {
		return f()
	}
	r.stage = &StageStats{Name: name}
	r.restartClock()
	err := f()
	wall := time.Since(r.start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.stage.WallSeconds = wall.Seconds()
	r.stage.Allocs = after.Mallocs - r.before.Mallocs
	r.stage.AllocBytes = after.TotalAlloc - r.before.TotalAlloc
	r.rep.Stages = append(r.rep.Stages, *r.stage)
	r.stage = nil
	return err
}

// restartClock restarts the running stage's wall clock and allocation
// counters, so a stage that must first build its input reports the timed
// kernel alone.
func (r *reporter) restartClock() {
	if r == nil {
		return
	}
	runtime.ReadMemStats(&r.before)
	r.start = time.Now()
}

// stageTimes attaches a compile's per-stage wall-time breakdown to the
// stage currently running.
func (r *reporter) stageTimes(st map[autoncs.Stage]time.Duration) {
	if r == nil || r.stage == nil || len(st) == 0 {
		return
	}
	if r.stage.StageTimes == nil {
		r.stage.StageTimes = make(map[string]float64, len(st))
	}
	for s, d := range st {
		r.stage.StageTimes[string(s)] = d.Seconds()
	}
}

// metric attaches a named value to the stage currently running.
func (r *reporter) metric(name string, v float64) {
	if r == nil || r.stage == nil {
		return
	}
	if r.stage.Metrics == nil {
		r.stage.Metrics = make(map[string]float64)
	}
	r.stage.Metrics[name] = v
}

// setBaseline embeds the pre-optimization reference of the named stage and
// computes the speedup ratios against the stage of the same name.
func (r *reporter) setBaseline(stage, ref string, wallSeconds float64, allocs uint64) {
	if r == nil || (wallSeconds == 0 && allocs == 0) {
		return
	}
	r.rep.Baseline = &Baseline{Ref: ref, Stage: stage, WallSeconds: wallSeconds, Allocs: allocs}
	for _, st := range r.rep.Stages {
		if st.Name != stage {
			continue
		}
		if st.WallSeconds > 0 && wallSeconds > 0 {
			r.rep.SpeedupWall = wallSeconds / st.WallSeconds
		}
		if st.Allocs > 0 && allocs > 0 {
			r.rep.AllocsRatio = float64(allocs) / float64(st.Allocs)
		}
	}
}

// write emits the report as indented JSON.
func (r *reporter) write(path string) error {
	if r == nil {
		return nil
	}
	data, err := json.MarshalIndent(&r.rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write bench report: %w", err)
	}
	return nil
}
