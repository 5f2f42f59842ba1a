package server

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/client"
)

// The admission batcher: every POST that misses the cache is admitted (or
// rejected) by a single goroutine that collects submissions into small
// batches — up to admitBatch items or admitWait, whichever comes first —
// and decides the whole batch under one lock acquisition. Each item
// carries its own response channel. Batching keeps admission O(1) lock
// acquisitions per batch under load, and it makes coalescing windows
// explicit: identical submissions that arrive within one batch are decided
// back-to-back, so exactly one becomes the flight leader and the rest
// attach as followers.

// admitKind is the outcome of one admission decision.
type admitKind int

const (
	admitRejected admitKind = iota // over capacity or draining; no record registered
	admitCached                    // answered from the cache at admission time
	admitLeader                    // new flight created, job queued
	admitFollower                  // attached to an existing flight
)

// admitReq is one submission awaiting admission.
type admitReq struct {
	spec      *compileSpec
	priority  string
	submitted time.Time
	resp      chan admitResult // buffered(1); receives exactly one result
}

// admitResult is the admission decision for one submission.
type admitResult struct {
	kind       admitKind
	j          *job // registered record (nil when rejected)
	code       int  // HTTP status for rejections
	msg        string
	retryAfter time.Duration
}

// submitAdmit hands a submission to the batcher. It returns false when the
// admitter has shut down (the caller should answer 503); on true the
// caller must receive exactly one result from r.resp.
func (s *Server) submitAdmit(r *admitReq) bool {
	// The RLock pairs with stopAdmitter's write lock: once admitStopped is
	// set no new send can begin, so the final flush observes every
	// submission that ever entered the channel.
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.admitStopped {
		return false
	}
	s.admitCh <- r
	return true
}

// admitter is the batching goroutine. It runs until stopAdmitter fires,
// then flushes the intake channel (rejecting stragglers) and exits.
func (s *Server) admitter() {
	defer s.aux.Done()
	for {
		var first *admitReq
		select {
		case first = <-s.admitCh:
		case <-s.stopAdmit:
			s.flushAdmit()
			return
		}
		batch := append(make([]*admitReq, 0, s.admitBatch), first)
		timer := time.NewTimer(s.admitWait)
	collect:
		for len(batch) < s.admitBatch {
			select {
			case r := <-s.admitCh:
				batch = append(batch, r)
			case <-timer.C:
				break collect
			case <-s.stopAdmit:
				break collect
			}
		}
		timer.Stop()
		s.admitAll(batch)
	}
}

// flushAdmit rejects every submission still in the intake channel. It runs
// after admitStopped is set, so no further sends can race with it.
func (s *Server) flushAdmit() {
	for {
		select {
		case r := <-s.admitCh:
			r.resp <- admitResult{
				kind:       admitRejected,
				code:       http.StatusServiceUnavailable,
				msg:        "draining: not accepting new work",
				retryAfter: drainRetryAfter,
			}
		default:
			return
		}
	}
}

// admitAll decides a whole batch under one lock acquisition.
func (s *Server) admitAll(batch []*admitReq) {
	now := time.Now()
	s.mu.Lock()
	s.admitRounds++
	for _, r := range batch {
		r.resp <- s.admitLocked(r, now)
	}
	s.mu.Unlock()
}

// admitLocked decides one submission. Caller holds s.mu. Jobs are
// registered only here — a rejected submission never touches the job
// map, so overload rejection does no record churn.
func (s *Server) admitLocked(r *admitReq, now time.Time) admitResult {
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
	if payload, ok := s.cache.Peek(r.spec.key); ok {
		j := s.registerJobLocked(r, now)
		j.cached = true
		s.accepted.Add(1)
		s.cacheHits.Add(1)
		s.finishJobLocked(j, client.StateDone, payload, nil, nil)
		s.log.Info("cache hit at admission", "job", j.id, "key", r.spec.key.Hex())
		return admitResult{kind: admitCached, j: j}
	}
	if fl, ok := s.flights[r.spec.key]; ok {
		j := s.registerJobLocked(r, now)
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
	j := s.registerJobLocked(r, now)
	ctx, cancel := context.WithCancel(s.baseCtx)
	fl := &flight{key: r.spec.key, spec: r.spec, ctx: ctx, cancel: cancel, jobs: []*job{j}, waiters: 1}
	j.fl = fl
	s.flights[fl.key] = fl
	s.queuedJobs++
	q := s.qInteractive
	if r.priority == client.PriorityBatch {
		q = s.qBatch
	}
	// Each queue channel holds queueDepth entries and queuedJobs bounds
	// their combined occupancy, so this send never blocks.
	q <- fl
	s.accepted.Add(1)
	return admitResult{kind: admitLeader, j: j}
}

// registerJobLocked allocates a job record and registers it for status
// queries, evicting the oldest finished records beyond the cap. Caller
// holds s.mu.
func (s *Server) registerJobLocked(r *admitReq, now time.Time) *job {
	s.seq++
	j := &job{
		id:        fmt.Sprintf("j-%06d", s.seq),
		key:       r.spec.key,
		delta:     r.spec.delta,
		baseKey:   r.spec.baseKey,
		priority:  r.priority,
		done:      make(chan struct{}),
		state:     client.StateQueued,
		submitted: r.submitted,
		admitted:  now,
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

// cacheHitJob registers a terminal record for a submission answered by the
// handler's cache probe (or, with peer set, by a fleet peer's cache),
// before admission.
func (s *Server) cacheHitJob(spec *compileSpec, priority string, payload []byte, submitted time.Time, peer string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.registerJobLocked(&admitReq{spec: spec, priority: priority, submitted: submitted}, time.Now())
	j.cached = true
	j.peer = peer
	s.accepted.Add(1)
	s.cacheHits.Add(1)
	s.finishJobLocked(j, client.StateDone, payload, nil, nil)
	return j
}
