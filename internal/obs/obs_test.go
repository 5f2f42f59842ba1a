package obs

import (
	"bytes"
	"errors"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

// recorder collects event type order for assertions.
type recorder struct {
	mu     sync.Mutex
	events []Event
}

func (r *recorder) Observe(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, e)
}

func TestEmitNilObserver(t *testing.T) {
	Emit(nil, CompileStart{}) // must not panic
}

func TestMulti(t *testing.T) {
	if Multi() != nil {
		t.Error("Multi() of nothing should be nil")
	}
	if Multi(nil, nil) != nil {
		t.Error("Multi(nil, nil) should be nil")
	}
	a, b := &recorder{}, &recorder{}
	if got := Multi(nil, a); got != a {
		t.Error("Multi with one live observer should return it unwrapped")
	}
	m := Multi(a, nil, b)
	m.Observe(StageStart{Stage: StagePlace})
	m.Observe(StageEnd{Stage: StagePlace})
	if len(a.events) != 2 || len(b.events) != 2 {
		t.Errorf("fan-out missed events: a=%d b=%d", len(a.events), len(b.events))
	}
}

func TestMetricsAccumulation(t *testing.T) {
	m := &Metrics{}
	failure := errors.New("boom")
	roundTimes := []time.Duration{time.Millisecond, 2 * time.Millisecond}
	events := []Event{
		CompileStart{Neurons: 100, Connections: 500, Workers: 4},
		StageStart{Stage: StageClustering},
		ISCIteration{Index: 1, Clusters: 7, Placed: 5},
		ISCIteration{Index: 2, Clusters: 4, Placed: 2},
		ClusterStats{MultilevelRounds: 2, FlatRounds: 1, Eigensolves: 9, RefineMoves: 33},
		StageEnd{Stage: StageClustering, Elapsed: 3 * time.Second},
		StageStart{Stage: StagePlace},
		PlaceProgress{Outer: 0, Step: 20, Lambda: 0.5},
		PlaceStats{Outer: 4, FieldSolves: 480, VCycles: 960, SwapsAccepted: 17},
		StageEnd{Stage: StagePlace, Elapsed: time.Second},
		StageStart{Stage: StageRoute},
		RouteBatch{Batch: 1, Wires: 16, Committed: 16, Capacity: 8},
		RouteRelaxation{Relaxations: 1, Capacity: 9, Pending: 2},
		RouteStats{Wires: 16, Rounds: 3, RipUps: 5, Expansions: 1234,
			OverusedPeak: 7, Relaxations: 1, FinalCapacity: 9, RoundTimes: roundTimes},
		StageEnd{Stage: StageRoute, Elapsed: 2 * time.Second, Err: failure},
		CompileEnd{Elapsed: 6 * time.Second, Err: failure},
		CacheLookup{Key: "ab", Hit: false},
		CacheLookup{Key: "ab", Hit: true, Disk: true},
		CacheLookup{Key: "cd", Hit: true},
	}
	for _, e := range events {
		m.Observe(e)
	}
	s := m.Snapshot()
	if s.Events != len(events) {
		t.Errorf("Events = %d, want %d", s.Events, len(events))
	}
	if s.Compiles != 1 || s.ISCIterations != 2 || s.PlaceSteps != 1 ||
		s.RouteBatches != 1 || s.Relaxations != 1 {
		t.Errorf("counts wrong: %+v", s)
	}
	if s.CacheHits != 2 || s.CacheMisses != 1 {
		t.Errorf("cache counts wrong: hits %d misses %d", s.CacheHits, s.CacheMisses)
	}
	if s.StageTimes[StageClustering] != 3*time.Second || s.StageTimes[StageRoute] != 2*time.Second {
		t.Errorf("stage times wrong: %v", s.StageTimes)
	}
	if s.LastISC.Index != 2 || s.LastISC.Clusters != 4 {
		t.Errorf("LastISC = %+v", s.LastISC)
	}
	if s.LastPlaceStats.FieldSolves != 480 || s.LastPlaceStats.SwapsAccepted != 17 {
		t.Errorf("LastPlaceStats = %+v", s.LastPlaceStats)
	}
	if s.LastClusterStats.MultilevelRounds != 2 || s.LastClusterStats.Eigensolves != 9 ||
		s.LastClusterStats.RefineMoves != 33 {
		t.Errorf("LastClusterStats = %+v", s.LastClusterStats)
	}
	if s.LastRouteStats.Rounds != 3 ||
		s.LastRouteStats.Expansions != 1234 || s.LastRouteStats.FinalCapacity != 9 ||
		len(s.LastRouteStats.RoundTimes) != 2 {
		t.Errorf("LastRouteStats = %+v", s.LastRouteStats)
	}
	// The snapshot's round timings are detached from the emitter's slice.
	roundTimes[0] = time.Hour
	if s.LastRouteStats.RoundTimes[0] != time.Millisecond {
		t.Error("snapshot shares RoundTimes with the emitter")
	}
	if s.CompileElapsed != 6*time.Second || !errors.Is(s.Err, failure) {
		t.Errorf("CompileElapsed/Err wrong: %v %v", s.CompileElapsed, s.Err)
	}
	// Snapshot must be detached from further accumulation.
	m.Observe(StageEnd{Stage: StageClustering, Elapsed: time.Second})
	if s.StageTimes[StageClustering] != 3*time.Second {
		t.Error("snapshot shares StageTimes map with live metrics")
	}
}

func TestSlogObserverLevels(t *testing.T) {
	var buf bytes.Buffer
	ob := NewSlog(slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo})))
	ob.Observe(StageStart{Stage: StageClustering})
	ob.Observe(ISCIteration{Index: 3, Clusters: 9, Placed: 4, QuartileCP: 1.5})
	ob.Observe(PlaceProgress{Outer: 1, Step: 40})                         // Debug: filtered at Info
	ob.Observe(RouteBatch{Batch: 2, Wires: 16})                           // Debug: filtered at Info
	ob.Observe(PlaceStats{Outer: 4, FieldSolves: 480, SwapsAccepted: 17}) // Info: summary event
	ob.Observe(ClusterStats{MultilevelRounds: 3, Eigensolves: 12})        // Info: summary event
	ob.Observe(RouteStats{Wires: 16, Rounds: 3, Expansions: 99, FinalCapacity: 9})
	ob.Observe(StageEnd{Stage: StageClustering, Elapsed: time.Second, Err: errors.New("bad")})
	out := buf.String()
	for _, want := range []string{"stage start", "isc iteration", "iter=3", "place stats", "fieldSolves=480", "cluster stats", "eigensolves=12", "route stats", "expansions=99", "stage end", "err=bad"} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q:\n%s", want, out)
		}
	}
	for _, reject := range []string{"place progress", "route batch"} {
		if strings.Contains(out, reject) {
			t.Errorf("Info-level handler leaked debug event %q:\n%s", reject, out)
		}
	}
	buf.Reset()
	dbg := NewSlog(slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug})))
	dbg.Observe(PlaceProgress{Outer: 1, Step: 40})
	dbg.Observe(RouteBatch{Batch: 2, Wires: 16})
	dbg.Observe(RouteRelaxation{Relaxations: 1, Capacity: 9, Pending: 3})
	out = buf.String()
	for _, want := range []string{"place progress", "route batch", "route relaxation"} {
		if !strings.Contains(out, want) {
			t.Errorf("debug log output missing %q:\n%s", want, out)
		}
	}
}

func TestStagesOrder(t *testing.T) {
	want := []Stage{StageClustering, StageNetlist, StagePlace, StageRoute, StageCost}
	got := Stages()
	if len(got) != len(want) {
		t.Fatalf("Stages() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Stages()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}
