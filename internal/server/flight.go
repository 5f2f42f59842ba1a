package server

import (
	"context"
	"errors"
	"time"

	"repro/client"
	"repro/internal/cache"
)

// flight is one in-flight compile shared by every identical submission: a
// single-flight entry keyed by the compile's content address
// (autoncs.CanonicalHash). The first admitted submission of a key becomes
// the leader — the job that occupies a queue slot and whose worker runs
// the compile — and every later submission of the same key attaches as a
// follower: its own job record, its own ?wait=1 semantics, zero queue
// cost. When the compile finishes, all attached jobs finish together with
// the same bit-identical payload.
//
// waiters counts the submissions still interested in the result. A
// fire-and-forget POST holds its interest forever (the compile must run
// for it); a ?wait=1 submitter releases it on disconnect, and DELETE
// /v1/jobs/{id} releases one job's interest explicitly. Cancellation is
// therefore reference-counted: the compile aborts only when the last
// interested waiter is gone.
//
// Every field is guarded by the Server's mu; a flight has no lock of its
// own. The flight lives in Server.flights from leader admission until the
// compile reaches a terminal state (or the last waiter detaches), so an
// admission either finds it and attaches, or finds the finished payload
// in the cache — never neither. The queues carry flights, not jobs, and
// the flight alone holds the spec: once the compile has run and every
// attached job has finished (and let go of it), nothing references the
// network or the base artifact any more.
type flight struct {
	key    cache.Key
	spec   *compileSpec
	ctx    context.Context
	cancel context.CancelFunc

	jobs      []*job // every attached record, leader first, attach order
	waiters   int
	running   bool
	startedAt time.Time
}

// errDetached is the terminal error of a job record whose submission
// withdrew (disconnected ?wait=1 caller or DELETE) while the shared
// compile kept running for the remaining waiters.
var errDetached = errors.New("submission withdrawn before the compile finished")

// detachJob withdraws one submission's interest in its flight: the record
// finishes cancelled immediately, and when it was the last interested
// party the shared compile itself is aborted through its context. Safe to
// call on any job, including terminal and cache-hit records (no-op).
func (s *Server) detachJob(j *job) {
	s.mu.Lock()
	fl := j.fl
	if fl == nil || j.detached || j.terminal() {
		s.mu.Unlock()
		return
	}
	j.detached = true
	fl.waiters--
	s.cancelled.Add(1)
	s.finishJobLocked(j, client.StateCancelled, nil, errDetached, nil)
	last := fl.waiters == 0
	if last {
		// Remove the flight before cancelling so a submission racing in
		// starts a fresh compile instead of attaching to a dying one.
		s.dropFlightLocked(fl)
		fl.cancel()
	}
	s.mu.Unlock()
	if last {
		s.log.Info("flight abandoned by last waiter", "key", fl.key.Hex(), "job", j.id)
	} else {
		s.log.Info("follower detached", "job", j.id, "key", fl.key.Hex())
	}
}

// dropFlightLocked removes fl from the single-flight table — but only if
// the table still maps the key to fl. After an abandoned compile (all
// waiters detached) a fresh submission may have registered a new flight
// under the same key; the abandoned compile's unwinding must not evict it.
// Caller holds s.mu.
func (s *Server) dropFlightLocked(fl *flight) {
	if s.flights[fl.key] == fl {
		delete(s.flights, fl.key)
	}
}

// finishFlightLocked finishes every attached job that is not already
// terminal (records detached earlier finished then) with the shared
// outcome, counting per-record terminal states. Caller holds s.mu and has
// already removed the flight from s.flights.
func (s *Server) finishFlightLocked(fl *flight, state string, payload []byte, err error, stageTimes map[string]float64) {
	for _, j := range fl.jobs {
		if j.terminal() {
			continue
		}
		switch state {
		case client.StateFailed:
			s.failed.Add(1)
		case client.StateCancelled:
			s.cancelled.Add(1)
		}
		s.finishJobLocked(j, state, payload, err, stageTimes)
	}
}

// finishJobLocked moves one job to a terminal state, detaches it from its
// flight (a finished record must not keep the compile's spec alive), and
// emits its flat per-request timing record. Caller holds s.mu, which
// serializes every finish of a registered job.
func (s *Server) finishJobLocked(j *job, state string, payload []byte, err error, stageTimes map[string]float64) {
	j.finish(state, payload, err, stageTimes)
	j.fl = nil
	s.metrics.Observe(j.timingRecord())
}
