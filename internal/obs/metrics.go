package obs

import (
	"sync"
	"time"
)

// Metrics is a thread-safe accumulating observer: it counts events, sums
// per-stage wall time, and keeps the last record of each progress stream.
// The zero value is ready to use. The flow delivers events sequentially,
// but Metrics locks anyway so a monitoring goroutine may Snapshot it while
// a compile is still running.
type Metrics struct {
	mu   sync.Mutex
	snap MetricsSnapshot
}

// MetricsSnapshot is a point-in-time copy of everything a Metrics observer
// has accumulated.
type MetricsSnapshot struct {
	Events           int // total events observed
	Compiles         int // CompileStart events
	ISCIterations    int
	PlaceSteps       int // PlaceProgress checkpoints
	RouteBatches     int
	Relaxations      int // RouteRelaxation events
	CacheHits        int // CacheLookup events with Hit
	CacheMisses      int // CacheLookup events without Hit
	RequestRecords   int // RequestTiming events (terminal serving-layer jobs)
	DeltaCompiles    int // DeltaStats events (finished delta recompiles)
	StageTimes       map[Stage]time.Duration
	CompileElapsed   time.Duration // total wall time of the last finished compile
	LastISC          ISCIteration
	LastClusterStats ClusterStats // stats of the last finished multilevel ISC run
	LastPlace        PlaceProgress
	LastPlaceStats   PlaceStats // stats of the last finished placement
	LastRoute        RouteBatch
	LastRouteStats   RouteStats    // stats of the last finished routing
	LastRequest      RequestTiming // timing record of the last terminal job
	LastDelta        DeltaStats    // stats of the last finished delta recompile
	Err              error         // error of the last StageEnd/CompileEnd that carried one
}

// Observe implements Observer.
func (m *Metrics) Observe(e Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.snap.Events++
	switch e := e.(type) {
	case CompileStart:
		m.snap.Compiles++
	case CompileEnd:
		m.snap.CompileElapsed = e.Elapsed
		if e.Err != nil {
			m.snap.Err = e.Err
		}
	case StageEnd:
		if m.snap.StageTimes == nil {
			m.snap.StageTimes = make(map[Stage]time.Duration)
		}
		m.snap.StageTimes[e.Stage] += e.Elapsed
		if e.Err != nil {
			m.snap.Err = e.Err
		}
	case ISCIteration:
		m.snap.ISCIterations++
		m.snap.LastISC = e
	case ClusterStats:
		m.snap.LastClusterStats = e
	case PlaceProgress:
		m.snap.PlaceSteps++
		m.snap.LastPlace = e
	case PlaceStats:
		m.snap.LastPlaceStats = e
	case RouteBatch:
		m.snap.RouteBatches++
		m.snap.LastRoute = e
	case RouteRelaxation:
		m.snap.Relaxations++
	case RouteStats:
		m.snap.LastRouteStats = e
		m.snap.LastRouteStats.RoundTimes = cloneDurations(e.RoundTimes)
	case CacheLookup:
		if e.Hit {
			m.snap.CacheHits++
		} else {
			m.snap.CacheMisses++
		}
	case RequestTiming:
		m.snap.RequestRecords++
		m.snap.LastRequest = e
	case DeltaStats:
		m.snap.DeltaCompiles++
		m.snap.LastDelta = e
	}
}

// Snapshot returns a copy of the accumulated state; the StageTimes map is
// cloned so the caller may hold it across further events.
func (m *Metrics) Snapshot() MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.snap
	if m.snap.StageTimes != nil {
		out.StageTimes = make(map[Stage]time.Duration, len(m.snap.StageTimes))
		for k, v := range m.snap.StageTimes {
			out.StageTimes[k] = v
		}
	}
	out.LastRouteStats.RoundTimes = cloneDurations(m.snap.LastRouteStats.RoundTimes)
	return out
}

// cloneDurations detaches a duration slice so snapshots never alias the
// emitter's (or each other's) backing array.
func cloneDurations(ds []time.Duration) []time.Duration {
	if ds == nil {
		return nil
	}
	out := make([]time.Duration, len(ds))
	copy(out, ds)
	return out
}
