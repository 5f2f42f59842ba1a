package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// mlScratchFor builds a scratch configured for the multilevel engine, the
// way ISCCtx does.
func mlScratchFor(cutoff int) (*scratch, *EngineStats) {
	st := &EngineStats{}
	sc := &scratch{
		ml:    mlOptions{enabled: true, cutoff: cutoff, ratio: DefaultCoarsenRatio},
		stats: st,
	}
	return sc, st
}

func TestMultilevelClusterPartition(t *testing.T) {
	const maxSize = 32
	for name, w := range map[string]*graph.Conn{
		"clustered": clusteredNet(8, 20, 41),
		"sparse":    graph.RandomSparse(400, 0.95, rand.New(rand.NewSource(42))),
	} {
		sc, st := mlScratchFor(48)
		clusters, err := multilevelCluster(w, maxSize, 1, sc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		isPartitionOfActive(t, w, clusters)
		for ci, cl := range clusters {
			if len(cl) > maxSize {
				t.Errorf("%s: cluster %d has %d neurons, max %d", name, ci, len(cl), maxSize)
			}
		}
		if st.Levels == 0 || st.MaxDepth == 0 {
			t.Errorf("%s: no coarsening happened: %+v", name, st)
		}
		if st.Eigensolves == 0 {
			t.Errorf("%s: no eigensolves recorded", name)
		}
	}
}

func TestMultilevelClusterReusedScratch(t *testing.T) {
	// One scratch across rounds on shrinking networks — the ISC usage
	// pattern — must keep producing valid bounded partitions.
	w := clusteredNet(10, 16, 43)
	sc, _ := mlScratchFor(32)
	remaining := w.Clone()
	for round := 0; round < 3 && remaining.NNZ() > 0; round++ {
		clusters, err := multilevelCluster(remaining, 24, 1, sc)
		if err != nil {
			t.Fatal(err)
		}
		isPartitionOfActive(t, remaining, clusters)
		// Remove the densest cluster's connections, as ISC would.
		best, bestW := -1, -1
		for ci, cl := range clusters {
			if m := remaining.CountWithin(cl); m > bestW {
				best, bestW = ci, m
			}
		}
		if best < 0 {
			break
		}
		remaining.RemoveWithin(clusters[best])
	}
}

// mlOpts returns ISC options with the multilevel engine on.
func mlOpts(seed int64, cutoff, workers int) ISCOptions {
	o := defaultOpts(seed)
	o.Multilevel = true
	o.MultilevelCutoff = cutoff
	o.Workers = workers
	return o
}

// engineCounters compares every deterministic EngineStats field (the wall
// times are excluded: they are diagnostic and vary run to run).
func engineCounters(s EngineStats) [8]int {
	return [8]int{
		s.MultilevelRounds, s.FlatRounds, s.Levels, s.MaxDepth,
		s.Matchings, s.Eigensolves, s.LanczosSteps, s.RefineMoves,
	}
}

// TestClusterWorkerInvariance: the multilevel clustering must be
// bit-identical for every worker count, on both net shapes, mirroring
// TestPlaceWorkerInvariance. Engine counters (eigensolves, matchings,
// refine moves, Lanczos steps) are part of the contract: a divergence there
// is a worker-dependent code path even if the final partition agrees.
func TestClusterWorkerInvariance(t *testing.T) {
	nets := map[string]*graph.Conn{
		"clustered": clusteredNet(8, 20, 51),
		"sparse720": graph.RandomSparse(720, 0.985, rand.New(rand.NewSource(21))),
	}
	// Cutoff 560 puts the large first rounds on the multilevel engine with
	// Lanczos bisections, and the (512, 560] tail rounds on the flat
	// engine's early-stopping Lanczos embedding, covering every parallel
	// kernel.
	cutoffs := map[string]int{"clustered": 48, "sparse720": 560}
	for name, w := range nets {
		if raceEnabled && name == "sparse720" {
			continue // minutes under the race detector; clustered covers the kernels
		}
		ref, err := ISC(w, mlOpts(7, cutoffs[name], 1))
		if err != nil {
			t.Fatalf("%s workers=1: %v", name, err)
		}
		for _, workers := range []int{2, 4, 8} {
			got, err := ISC(w, mlOpts(7, cutoffs[name], workers))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if engineCounters(got.Engine) != engineCounters(ref.Engine) {
				t.Fatalf("%s workers=%d: engine counters %v, want %v",
					name, workers, engineCounters(got.Engine), engineCounters(ref.Engine))
			}
			if len(got.Trace) != len(ref.Trace) {
				t.Fatalf("%s workers=%d: %d iterations, want %d", name, workers, len(got.Trace), len(ref.Trace))
			}
			a, b := got.Assignment, ref.Assignment
			if len(a.Crossbars) != len(b.Crossbars) || len(a.Synapses) != len(b.Synapses) {
				t.Fatalf("%s workers=%d: %d crossbars/%d synapses, want %d/%d",
					name, workers, len(a.Crossbars), len(a.Synapses), len(b.Crossbars), len(b.Synapses))
			}
			for i := range a.Crossbars {
				ca, cb := a.Crossbars[i], b.Crossbars[i]
				if ca.Size != cb.Size || len(ca.Inputs) != len(cb.Inputs) || len(ca.Conns) != len(cb.Conns) {
					t.Fatalf("%s workers=%d: crossbar %d differs", name, workers, i)
				}
				for j := range ca.Inputs {
					if ca.Inputs[j] != cb.Inputs[j] {
						t.Fatalf("%s workers=%d: crossbar %d input %d differs", name, workers, i, j)
					}
				}
				for j := range ca.Conns {
					if ca.Conns[j] != cb.Conns[j] {
						t.Fatalf("%s workers=%d: crossbar %d conn %d differs", name, workers, i, j)
					}
				}
			}
			for i := range a.Synapses {
				if a.Synapses[i] != b.Synapses[i] {
					t.Fatalf("%s workers=%d: synapse %d differs", name, workers, i)
				}
			}
		}
	}
}

func TestMultilevelISCValidAssignment(t *testing.T) {
	w := graph.RandomSparse(600, 0.98, rand.New(rand.NewSource(61)))
	res, err := ISC(w, mlOpts(62, 128, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Assignment.Validate(w); err != nil {
		t.Fatalf("multilevel ISC assignment invalid: %v", err)
	}
	if res.Engine.MultilevelRounds == 0 {
		t.Fatalf("multilevel engine never engaged: %+v", res.Engine)
	}
}

func TestISCOptionValidationMultilevel(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*ISCOptions)
		ok     bool
	}{
		{"cutoff default", func(o *ISCOptions) { o.MultilevelCutoff = 0 }, true},
		{"cutoff too small", func(o *ISCOptions) { o.MultilevelCutoff = 1 }, false},
		{"cutoff negative", func(o *ISCOptions) { o.MultilevelCutoff = -5 }, false},
		{"cutoff minimal", func(o *ISCOptions) { o.MultilevelCutoff = 2 }, true},
		{"ratio default", func(o *ISCOptions) { o.CoarsenRatio = 0 }, true},
		{"ratio negative", func(o *ISCOptions) { o.CoarsenRatio = -0.5 }, false},
		{"ratio one", func(o *ISCOptions) { o.CoarsenRatio = 1 }, false},
		{"ratio above one", func(o *ISCOptions) { o.CoarsenRatio = 1.5 }, false},
		{"ratio valid", func(o *ISCOptions) { o.CoarsenRatio = 0.65 }, true},
		{"levels negative", func(o *ISCOptions) { o.MultilevelLevels = -1 }, false},
		{"levels bounded", func(o *ISCOptions) { o.MultilevelLevels = 3 }, true},
	}
	w := clusteredNet(4, 16, 71)
	for _, tc := range cases {
		opts := defaultOpts(72)
		opts.Multilevel = true
		tc.mutate(&opts)
		_, err := ISC(w, opts)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid option accepted", tc.name)
		}
	}
}

func TestMultilevelLevelBound(t *testing.T) {
	w := graph.RandomSparse(500, 0.97, rand.New(rand.NewSource(81)))
	opts := mlOpts(82, 32, 1)
	opts.MultilevelLevels = 1
	res, err := ISC(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine.MaxDepth > 1 {
		t.Fatalf("level bound 1 exceeded: depth %d", res.Engine.MaxDepth)
	}
}

func BenchmarkMultilevelCluster(b *testing.B) {
	w := graph.RandomSparse(2000, 0.995, rand.New(rand.NewSource(91)))
	sc, _ := mlScratchFor(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := multilevelCluster(w, 32, 1, sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlatCluster(b *testing.B) {
	w := graph.RandomSparse(2000, 0.995, rand.New(rand.NewSource(91)))
	sc := &scratch{}
	rng := rand.New(rand.NewSource(92))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gcpN(w, 32, rng, 1, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFlatTailCountsEigensolves: a multilevel run's flat-tail round counts
// its one spectral solve whichever path it takes — the dense eigensolver
// (≤ lanczosCutoff active neurons) or Lanczos — so Eigensolves is
// bisections + flat embeddings, as documented.
func TestFlatTailCountsEigensolves(t *testing.T) {
	for name, tc := range map[string]struct {
		w       *graph.Conn
		lanczos bool
	}{
		"dense":   {clusteredNet(8, 20, 51), false},
		"lanczos": {graph.RandomSparse(720, 0.985, rand.New(rand.NewSource(21))), true},
	} {
		if raceEnabled && tc.lanczos {
			continue // slow under the race detector; the dense case is the fix
		}
		sc, st := mlScratchFor(tc.w.N()) // the whole net is under the cutoff
		if _, err := clusterRound(tc.w, 32, rand.New(rand.NewSource(1)), 1, sc); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.FlatRounds != 1 || st.MultilevelRounds != 0 || (st.LanczosSteps > 0) != tc.lanczos {
			t.Fatalf("%s: round not on the expected flat path: %+v", name, *st)
		}
		if st.Eigensolves != 1 {
			t.Errorf("%s: flat-tail round counted %d eigensolves, want 1", name, st.Eigensolves)
		}
	}

	// A whole multilevel-mode ISC run whose rounds all fall under the
	// cutoff goes dense every round: one solve per round.
	w := clusteredNet(8, 20, 51)
	res, err := ISC(w, mlOpts(7, w.N(), 1))
	if err != nil {
		t.Fatal(err)
	}
	if e := res.Engine; e.FlatRounds == 0 || e.MultilevelRounds != 0 || e.Eigensolves != e.FlatRounds {
		t.Fatalf("all-flat run: %d flat rounds, %d eigensolves, want one solve per round", e.FlatRounds, e.Eigensolves)
	}
}
