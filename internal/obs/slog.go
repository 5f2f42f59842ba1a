package obs

import "log/slog"

// slogObserver renders events as structured log records. Coarse events
// (compile start/end, stage boundaries, ISC iterations, capacity
// relaxations) log at Info; high-frequency events (placement checkpoints,
// route batches) log at Debug, so a handler at LevelInfo gives a readable
// per-stage trace and one at LevelDebug the full firehose.
type slogObserver struct {
	l *slog.Logger
}

// NewSlog returns an Observer that logs every event through l. The -v flag
// of the CLIs installs it with a LevelInfo stderr handler, -trace with
// LevelDebug.
func NewSlog(l *slog.Logger) Observer {
	return slogObserver{l: l}
}

func (s slogObserver) Observe(e Event) {
	switch e := e.(type) {
	case CompileStart:
		s.l.Info("compile start",
			"neurons", e.Neurons, "connections", e.Connections, "workers", e.Workers)
	case CompileEnd:
		if e.Err != nil {
			s.l.Info("compile end", "elapsed", e.Elapsed, "err", e.Err)
		} else {
			s.l.Info("compile end", "elapsed", e.Elapsed)
		}
	case StageStart:
		s.l.Info("stage start", "stage", string(e.Stage))
	case StageEnd:
		if e.Err != nil {
			s.l.Info("stage end", "stage", string(e.Stage), "elapsed", e.Elapsed, "err", e.Err)
		} else {
			s.l.Info("stage end", "stage", string(e.Stage), "elapsed", e.Elapsed)
		}
	case ISCIteration:
		s.l.Info("isc iteration",
			"iter", e.Index, "clusters", e.Clusters, "placed", e.Placed,
			"quartileCP", e.QuartileCP, "avgUtil", e.AvgUtilization,
			"threshold", e.Threshold, "outliers", e.OutlierRatio)
	case ClusterStats:
		s.l.Info("cluster stats",
			"mlRounds", e.MultilevelRounds, "flatRounds", e.FlatRounds,
			"levels", e.Levels, "maxDepth", e.MaxDepth,
			"matchings", e.Matchings, "eigensolves", e.Eigensolves,
			"lanczosSteps", e.LanczosSteps,
			"refineMoves", e.RefineMoves, "coarsenTime", e.CoarsenTime,
			"solveTime", e.SolveTime, "refineTime", e.RefineTime)
	case PlaceProgress:
		s.l.Debug("place progress",
			"outer", e.Outer, "step", e.Step, "lambda", e.Lambda,
			"hpwl", e.HPWL, "overlap", e.Overlap,
			"bestHPWL", e.BestHPWL, "bestOverlap", e.BestOverlap)
	case PlaceStats:
		s.l.Info("place stats",
			"outer", e.Outer, "fieldSolves", e.FieldSolves,
			"vCycles", e.VCycles, "fieldSweeps", e.FieldSweeps,
			"swapCandidates", e.SwapCandidates, "swapsAccepted", e.SwapsAccepted,
			"fieldTime", e.FieldTime, "detailTime", e.DetailTime)
	case RouteBatch:
		s.l.Debug("route batch",
			"batch", e.Batch, "wires", e.Wires, "committed", e.Committed,
			"capacity", e.Capacity)
	case RouteRelaxation:
		s.l.Info("route relaxation",
			"relaxations", e.Relaxations, "capacity", e.Capacity, "pending", e.Pending)
	case RouteStats:
		s.l.Info("route stats",
			"wires", e.Wires, "rounds", e.Rounds,
			"ripUps", e.RipUps, "expansions", e.Expansions,
			"overusedPeak", e.OverusedPeak, "relaxations", e.Relaxations,
			"finalCapacity", e.FinalCapacity)
	case CacheLookup:
		s.l.Info("cache lookup", "key", e.Key, "hit", e.Hit, "disk", e.Disk)
	case PeerLookup:
		s.l.Info("peer lookup",
			"key", e.Key, "peer", e.Peer, "hit", e.Hit, "err", e.Err, "elapsed", e.Elapsed)
	case DeltaStats:
		s.l.Info("delta stats",
			"edits", e.Edits, "added", e.AddedEdges, "removed", e.RemovedEdges,
			"touched", e.TouchedNeurons, "editRatio", e.EditRatio,
			"baseCrossbars", e.BaseCrossbars, "kept", e.KeptCrossbars,
			"dirty", e.DirtyCrossbars, "new", e.NewCrossbars,
			"residualConns", e.ResidualConns, "clusterReuse", e.ClusterReuseFrac,
			"seededCells", e.SeededCells, "placeReuse", e.PlaceReuseFrac,
			"reusedWires", e.ReusedWires, "reroutedWires", e.ReroutedWires,
			"routeReuse", e.RouteReuseFrac, "fullRoute", e.FullRoute)
	case RequestTiming:
		// One flat line per terminal job: every field scalar, fixed key
		// order, grep/CSV-friendly.
		s.l.Info("request timing",
			"job", e.Job, "key", e.Key, "priority", e.Priority,
			"coalesced", e.Coalesced, "cacheHit", e.CacheHit, "state", e.State,
			"admitWait", e.AdmitWait, "queueWait", e.QueueWait,
			"run", e.Run, "total", e.Total)
	}
}
