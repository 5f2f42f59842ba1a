package server

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/client"
)

// Admission: every POST that misses the cache is admitted (or rejected) on
// its own request goroutine, under s.mu. The lock orders each decision
// against every other one, so identical submissions are decided one after
// another: exactly one becomes the flight leader and the rest attach as
// followers. It also orders them against Drain, which sets draining and
// closes the queues under the same lock, so a submission either sees
// draining and is answered 503, or is enqueued before the queues close —
// never sent on a closed queue, never left unanswered.

// admitKind is the outcome of one admission decision.
type admitKind int

const (
	admitRejected admitKind = iota // over capacity or draining; no record registered
	admitCached                    // answered from the cache at admission time
	admitLeader                    // new flight created, job queued
	admitFollower                  // attached to an existing flight
)

// admitResult is the admission decision for one submission.
type admitResult struct {
	kind       admitKind
	j          *job // registered record (nil when rejected)
	code       int  // HTTP status for rejections
	msg        string
	retryAfter time.Duration
}

// admit decides one submission under s.mu. Jobs are registered only here
// and in cacheHitLocked — a rejected submission never touches the job map,
// so overload rejection does no record churn.
func (s *Server) admit(spec *compileSpec, priority string, submitted time.Time) admitResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return admitResult{
			kind:       admitRejected,
			code:       http.StatusServiceUnavailable,
			msg:        "draining: not accepting new work",
			retryAfter: drainRetryAfter,
		}
	}
	// Late cache probe: the handler's (disk-capable) probe ran before
	// admission, and a compile of this key may have finished in between.
	// The memory layer is O(1) under its own lock, so re-checking here
	// closes the window without disk I/O. runFlight publishes the payload to
	// the cache before removing the flight, so a submission never finds
	// neither.
	if payload, ok := s.cache.Peek(spec.key); ok {
		j := s.cacheHitLocked(spec, priority, payload, submitted)
		s.log.Info("cache hit at admission", "job", j.id, "key", spec.key.Hex())
		return admitResult{kind: admitCached, j: j}
	}
	if fl, ok := s.flights[spec.key]; ok {
		j := s.registerJobLocked(spec, priority, submitted)
		j.fl = fl
		j.follower = true
		fl.jobs = append(fl.jobs, j)
		fl.waiters++
		if fl.running {
			j.setRunningAt(fl.startedAt)
		}
		s.accepted.Add(1)
		s.coalesced.Add(1)
		s.log.Info("job coalesced", "job", j.id, "leader", fl.jobs[0].id, "key", fl.key.Hex(), "waiters", fl.waiters)
		return admitResult{kind: admitFollower, j: j}
	}
	if s.queuedJobs >= s.queueDepth {
		s.rejected.Add(1)
		return admitResult{
			kind:       admitRejected,
			code:       http.StatusTooManyRequests,
			msg:        fmt.Sprintf("queue full (%d queued, %d running)", s.queuedJobs, s.inflight.Load()),
			retryAfter: s.retryAfter(),
		}
	}
	j := s.registerJobLocked(spec, priority, submitted)
	ctx, cancel := context.WithCancel(s.baseCtx)
	fl := &flight{key: spec.key, spec: spec, ctx: ctx, cancel: cancel, jobs: []*job{j}, waiters: 1}
	j.fl = fl
	s.flights[fl.key] = fl
	s.queuedJobs++
	q := s.qInteractive
	if priority == client.PriorityBatch {
		q = s.qBatch
	}
	// Each queue channel holds queueDepth entries and queuedJobs bounds
	// their combined occupancy, so this send never blocks.
	q <- fl
	s.accepted.Add(1)
	return admitResult{kind: admitLeader, j: j}
}

// registerJobLocked allocates a job record, admitted now, and registers it
// for status queries, evicting the oldest finished records beyond the cap.
// Caller holds s.mu.
func (s *Server) registerJobLocked(spec *compileSpec, priority string, submitted time.Time) *job {
	s.seq++
	j := &job{
		id:        fmt.Sprintf("j-%06d", s.seq),
		key:       spec.key,
		delta:     spec.delta,
		baseKey:   spec.baseKey,
		priority:  priority,
		done:      make(chan struct{}),
		state:     client.StateQueued,
		submitted: submitted,
		admitted:  time.Now(),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	// Never evict an active job (an unfinished head stalls eviction, which
	// is fine — the cap is far above any plausible active set).
	for len(s.order) > maxJobRecords {
		old, ok := s.jobs[s.order[0]]
		if ok && !old.terminal() {
			break
		}
		delete(s.jobs, s.order[0])
		s.order = s.order[1:]
	}
	return j
}

// cacheHitLocked registers a record born terminal for a submission
// answered from the cache: by the handler's probe or by admit's late
// re-check. Caller holds s.mu.
func (s *Server) cacheHitLocked(spec *compileSpec, priority string, payload []byte, submitted time.Time) *job {
	j := s.registerJobLocked(spec, priority, submitted)
	j.cached = true
	s.accepted.Add(1)
	s.cacheHits.Add(1)
	s.finishJobLocked(j, client.StateDone, payload, nil, nil)
	return j
}

// cacheHitJob is cacheHitLocked for the handler's cache probe, which runs
// before admission and without s.mu.
func (s *Server) cacheHitJob(spec *compileSpec, priority string, payload []byte, submitted time.Time) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cacheHitLocked(spec, priority, payload, submitted)
}
