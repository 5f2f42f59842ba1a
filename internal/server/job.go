package server

import (
	"sync"
	"time"

	"repro/client"
	"repro/internal/cache"
	"repro/internal/obs"
)

// job is one submitted compile request: a queryable record with its own id
// and ?wait=1 semantics. Several jobs may share one compile — the flight
// they are attached to (see flight.go) — in which case exactly one of them
// (the leader) occupies a queue slot and the rest are followers. Cache-hit
// jobs are born terminal and attach to nothing.
//
// A record keeps only what status and result queries read: the content
// addresses, the timings, and the payload, which is the cache's own slice
// (cache.Store.GetDetail, PutShared), not a second copy; only a hit found
// by admit's late re-check holds cache.Store.Peek's copy. It holds
// no network, spec or artifact, and it lets go of its flight when it
// finishes, so up to maxJobRecords finished records pin nothing of the
// compiles behind them (TestFinishedJobHoldsNoInputs).
//
// The id, keys, follower flag, and priority are immutable after
// registration. The lifecycle fields are guarded by mu; fl and detached
// are guarded by the Server's mu (they are part of the flight's waiter
// accounting, not the job's own state). done closes exactly once, when the
// job reaches a terminal state.
type job struct {
	id       string
	key      cache.Key
	delta    bool      // the job runs as a delta recompile of baseKey
	baseKey  cache.Key // the base compile's result key, when delta
	follower bool      // attached to an existing flight rather than leading it
	priority string    // client.PriorityInteractive or client.PriorityBatch
	done     chan struct{}

	fl       *flight // shared compile, until the job finishes; nil for cache hits (guarded by Server.mu)
	detached bool    // interest withdrawn (guarded by Server.mu)

	mu         sync.Mutex
	state      string
	cached     bool
	peer       string // fleet peer whose cache answered; "" for local answers
	err        error
	result     []byte
	submitted  time.Time
	admitted   time.Time
	started    time.Time
	finished   time.Time
	stageTimes map[string]float64
}

// setRunningAt transitions queued → running. Followers attached after the
// compile started receive the flight's start time, so StartedAt means "when
// the shared compile started" on every attached record.
func (j *job) setRunningAt(t time.Time) {
	j.mu.Lock()
	j.state = client.StateRunning
	j.started = t
	j.mu.Unlock()
}

// finish moves the job to a terminal state and wakes every waiter. It must
// be called at most once; the Server serializes all finishes of
// flight-attached jobs under its own mu.
func (j *job) finish(state string, result []byte, err error, stageTimes map[string]float64) {
	j.mu.Lock()
	j.state = state
	j.result = result
	j.err = err
	j.stageTimes = stageTimes
	j.finished = time.Now()
	j.mu.Unlock()
	close(j.done)
}

// terminal reports whether the job has finished (any terminal state).
func (j *job) terminal() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// resultBytes returns the payload of a done job (nil otherwise).
func (j *job) resultBytes() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != client.StateDone {
		return nil
	}
	return j.result
}

// timingRecord renders the finished job as the flat per-request timing
// record the serving layer emits through internal/obs. Only meaningful on
// a terminal job.
func (j *job) timingRecord() obs.RequestTiming {
	j.mu.Lock()
	defer j.mu.Unlock()
	t := obs.RequestTiming{
		Job:       j.id,
		Key:       j.key.Hex(),
		Priority:  j.priority,
		Coalesced: j.follower,
		CacheHit:  j.cached,
		State:     j.state,
		Submitted: j.submitted,
	}
	if !j.admitted.IsZero() {
		t.AdmitWait = nonNegative(j.admitted.Sub(j.submitted))
	}
	switch {
	case !j.started.IsZero():
		// A follower attached mid-compile has admitted > started; its queue
		// wait is zero, not negative.
		t.QueueWait = nonNegative(j.started.Sub(j.admitted))
		t.Run = nonNegative(j.finished.Sub(j.started))
	case !j.admitted.IsZero():
		t.QueueWait = nonNegative(j.finished.Sub(j.admitted))
	}
	t.Total = nonNegative(j.finished.Sub(j.submitted))
	return t
}

func nonNegative(d time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	return d
}

// status snapshots the job as its wire representation. When embedResult is
// set and the job is done, the payload rides along (the wait=1 response).
func (j *job) status(embedResult bool) client.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := client.JobStatus{
		ID:          j.id,
		State:       j.state,
		Key:         j.key.Hex(),
		Cached:      j.cached,
		Peer:        j.peer,
		Coalesced:   j.follower,
		Priority:    j.priority,
		SubmittedAt: j.submitted.UTC().Format(time.RFC3339Nano),
		StageTimes:  j.stageTimes,
	}
	if j.delta {
		st.BaseKey = j.baseKey.Hex()
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		st.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		st.FinishedAt = j.finished.UTC().Format(time.RFC3339Nano)
		if !j.started.IsZero() {
			st.ElapsedSeconds = j.finished.Sub(j.started).Seconds()
		}
	}
	if j.state == client.StateDone {
		st.ResultURL = "/v1/results/" + j.id
		if embedResult {
			st.Result = j.result
		}
	}
	return st
}
