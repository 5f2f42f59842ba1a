package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/hopfield"
)

// Scaled-down sizes keep the experiment tests fast while exercising every
// runner end to end; the full paper-scale runs live in the benchmark
// harness and cmd/ncsbench.
const (
	testN    = 120
	testSeed = 7
)

var testTB = hopfield.Testbench{ID: 0, M: 8, N: testN, Sparsity: 0.92}

func TestSparseNet(t *testing.T) {
	cm := SparseNet(testN, testSeed)
	if cm.N() != testN {
		t.Fatalf("N = %d", cm.N())
	}
	if s := cm.Sparsity(); s < 0.9 || s > 0.99 {
		t.Fatalf("sparsity %g outside the testbench regime", s)
	}
}

func TestFigure3(t *testing.T) {
	res, err := Figure3(testN, 32, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) == 0 {
		t.Fatal("no clusters")
	}
	if res.OutlierRatio < 0 || res.OutlierRatio > 1 {
		t.Fatalf("outlier ratio %g", res.OutlierRatio)
	}
	// Unbounded MSC on a near-random sparse network typically produces
	// imbalanced clusters (one giant component-sized cluster absorbing
	// most connections) — the very behaviour GCP exists to fix. Either a
	// substantial outlier share or an over-limit cluster must be present.
	maxCluster := 0
	for _, cl := range res.Clusters {
		if len(cl) > maxCluster {
			maxCluster = len(cl)
		}
	}
	if res.OutlierRatio < 0.05 && maxCluster <= 32 {
		t.Fatalf("MSC gave outliers %.2f with max cluster %d — suspiciously ideal", res.OutlierRatio, maxCluster)
	}
	if !strings.Contains(res.Before, "\n") || !strings.Contains(res.After, "\n") {
		t.Fatal("missing renderings")
	}
}

func TestFigure4(t *testing.T) {
	res, err := Figure4(testN, 32, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if res.GCP.MaxSize > 32 {
		t.Fatalf("GCP max cluster %d exceeds limit", res.GCP.MaxSize)
	}
	if res.Traversing.MaxSize > 32 {
		t.Fatalf("traversing max cluster %d exceeds limit", res.Traversing.MaxSize)
	}
	if res.GCP.Elapsed <= 0 || res.Traversing.Elapsed <= 0 {
		t.Fatal("elapsed times not recorded")
	}
	// Quality parity: within-cluster capture within 35 points.
	if d := res.GCP.WithinRatio - res.Traversing.WithinRatio; d > 0.35 || d < -0.35 {
		t.Fatalf("GCP %g vs traversing %g capture diverge", res.GCP.WithinRatio, res.Traversing.WithinRatio)
	}
}

func TestFigure56(t *testing.T) {
	res, err := Figure56Ctx(context.Background(), testN, testSeed, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) == 0 {
		t.Fatal("no iterations traced")
	}
	prev := 1.0
	for _, it := range res.Iterations {
		if it.OutlierRatio > prev+1e-9 {
			t.Fatalf("outlier ratio rose at iteration %d", it.Index)
		}
		prev = it.OutlierRatio
		if it.RemainingView == "" {
			t.Fatalf("iteration %d missing rendering", it.Index)
		}
	}
	if res.FinalOutlierRatio != res.Iterations[len(res.Iterations)-1].OutlierRatio {
		t.Fatal("final outlier ratio inconsistent with trace")
	}
}

func TestFigureISC(t *testing.T) {
	a, err := FigureISCCtx(context.Background(), testTB, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if a.Iterations == 0 || len(a.OutlierRatio) != a.Iterations {
		t.Fatalf("trace lengths wrong: %d vs %d", a.Iterations, len(a.OutlierRatio))
	}
	if len(a.NormalizedUtilization) != a.Iterations || len(a.AvgCP) != a.Iterations {
		t.Fatal("subplot (b) series length wrong")
	}
	if a.BaselineAvgUtil <= 0 {
		t.Fatal("no baseline utilization")
	}
	if len(a.Fans) != testN {
		t.Fatalf("fan distribution over %d neurons, want %d", len(a.Fans), testN)
	}
	// The paper's headline for subplot (d): total fanin+fanout shrinks
	// versus the baseline (≈80%).
	if a.AvgSumRatio <= 0 || a.AvgSumRatio >= 1.2 {
		t.Fatalf("avg fan sum ratio %g implausible", a.AvgSumRatio)
	}
	for size := range a.SizeHistogram {
		if size < 16 || size > 64 {
			t.Fatalf("crossbar size %d outside the library", size)
		}
	}
}

// TestTable1Scaled holds Table 1's claim at the scale `ncsbench -quick`
// runs it (seed 1; testbench i has M = 6+2i patterns, N = 100+40i neurons
// and sparsity 0.93): AutoNCS beats FullCro on wirelength, area and delay
// on every testbench, and the average reductions stay within
// table1AvgTolerance points of the 51.70 / 44.08 / 42.90% this flow
// measures there (the paper reports 47.80 / 31.97 / 47.18% at full scale).
// The flow is deterministic, so a reading outside the band means a change
// moved Table 1, and the numbers quoted from it need re-measuring. The
// paper's 40–51% per-testbench delay band is not pinned: at this scale
// testbench 3 reads 37.84%.
func TestTable1Scaled(t *testing.T) {
	tbs := hopfield.Testbenches()
	for i := range tbs {
		tbs[i].M = 6 + 2*i
		tbs[i].N = 100 + 40*i
		tbs[i].Sparsity = 0.93
	}
	res, err := Table1Ctx(context.Background(), tbs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(tbs) {
		t.Fatalf("%d rows, want %d", len(res.Rows), len(tbs))
	}
	for _, row := range res.Rows {
		r := row.Reductions
		if r.Wirelength <= 0 || r.Area <= 0 || r.Delay <= 0 {
			t.Errorf("testbench %d: reductions wirelength %.2f%%, area %.2f%%, delay %.2f%%; AutoNCS must beat FullCro on all three",
				row.Testbench.ID, r.Wirelength, r.Area, r.Delay)
		}
	}
	const table1AvgTolerance = 5.0 // percentage points
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"wirelength", res.Avg.Wirelength, 51.70},
		{"area", res.Avg.Area, 44.08},
		{"delay", res.Avg.Delay, 42.90},
	} {
		if c.got < c.want-table1AvgTolerance || c.got > c.want+table1AvgTolerance {
			t.Errorf("average %s reduction %.2f%%, want %.2f ± %.0f%%", c.name, c.got, c.want, table1AvgTolerance)
		}
	}
}

func TestFigure10Scaled(t *testing.T) {
	res, err := Figure10Ctx(context.Background(), testTB, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]string{
		"FullCro layout":     res.FullCroLayout,
		"FullCro congestion": res.FullCroCongestion,
		"AutoNCS layout":     res.AutoNCSLayout,
		"AutoNCS congestion": res.AutoNCSCongestion,
	} {
		if len(s) == 0 {
			t.Errorf("%s rendering empty", name)
		}
	}
	if res.FullCroPeakUsage <= 0 || res.AutoNCSPeakUsage <= 0 {
		t.Error("no congestion recorded")
	}
	if res.FullCroArea <= 0 || res.AutoNCSArea <= 0 {
		t.Error("degenerate areas")
	}
}

func TestReliabilitySweep(t *testing.T) {
	sweep, err := Reliability([]int{8, 40}, 3, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Points) != 2 {
		t.Fatalf("%d points", len(sweep.Points))
	}
	if sweep.Points[0].Rate < sweep.Points[1].Rate {
		t.Fatalf("reliability grew with size: %v", sweep.Points)
	}
	if knee := sweep.Knee(); knee != 8 && knee != 40 {
		t.Fatalf("knee %d not among the sizes", knee)
	}
}

func TestReliabilityValidation(t *testing.T) {
	if _, err := Reliability([]int{8}, 0, 0.3, 1); err == nil {
		t.Fatal("0 trials accepted")
	}
}

func TestFidelity(t *testing.T) {
	tb := hopfield.Testbench{ID: 0, M: 5, N: 80, Sparsity: 0.9}
	res, err := Fidelity(tb, 0.05, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.SoftwareRate < 0.8 {
		t.Fatalf("software recognition %g implausibly low", res.SoftwareRate)
	}
	// The compiled hardware must not collapse versus software.
	if res.HardwareRate < res.SoftwareRate-0.4 {
		t.Fatalf("hardware rate %g collapsed vs software %g", res.HardwareRate, res.SoftwareRate)
	}
	if res.Crossbars == 0 && res.Synapses == 0 {
		t.Fatal("no hardware produced")
	}
}

func TestFidelityWithDefects(t *testing.T) {
	tb := hopfield.Testbench{ID: 0, M: 4, N: 60, Sparsity: 0.88}
	res, err := Fidelity(tb, 0.05, 0.02, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.DefectRate != 0.02 {
		t.Fatal("defect rate not recorded")
	}
	if res.HardwareRate < 0.4 {
		t.Fatalf("repaired hardware rate %g collapsed", res.HardwareRate)
	}
}
