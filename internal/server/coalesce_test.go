package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/client"
	"repro/internal/obs"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCoalesceConcurrentIdentical is the tentpole contract: N concurrent
// identical waited submissions run exactly one compile, and every caller
// receives bit-identical result payloads.
func TestCoalesceConcurrentIdentical(t *testing.T) {
	s, c := newTestServer(t, Options{Slots: 1, QueueDepth: 2})
	b := installBlocking(s)
	ctx := context.Background()
	const n = 4

	var wg sync.WaitGroup
	results := make([]*client.JobStatus, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.CompileWait(ctx, smallReq(1))
		}(i)
	}

	// All four must be admitted — one leader holding the slot, three
	// followers — before the compile is allowed to finish.
	<-b.started
	waitFor(t, "all submissions admitted", func() bool {
		m, err := c.Metrics(ctx)
		return err == nil && m.JobsAccepted == n
	})
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Flights != 1 {
		t.Errorf("flights %d, want 1", m.Flights)
	}
	if m.JobsCoalesced != n-1 {
		t.Errorf("coalesced %d, want %d", m.JobsCoalesced, n-1)
	}
	b.release <- struct{}{}
	wg.Wait()

	var leaderBytes []byte
	coalesced := 0
	for i, st := range results {
		if errs[i] != nil {
			t.Fatalf("submission %d: %v", i, errs[i])
		}
		if st.State != client.StateDone {
			t.Fatalf("submission %d ended %s (%s)", i, st.State, st.Error)
		}
		if st.Coalesced {
			coalesced++
		}
		payload, err := c.ResultBytes(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if leaderBytes == nil {
			leaderBytes = payload
		} else if !bytes.Equal(leaderBytes, payload) {
			t.Fatalf("submission %d payload differs from the leader's", i)
		}
		if len(st.Result) == 0 {
			t.Errorf("submission %d: wait=1 response carries no embedded result", i)
		}
	}
	if coalesced != n-1 {
		t.Errorf("%d jobs report coalesced, want %d", coalesced, n-1)
	}

	m, err = c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Compiles != 1 || m.JobsCompleted != 1 {
		t.Errorf("compiles %d completed %d, want 1/1: the duplicates did not coalesce", m.Compiles, m.JobsCompleted)
	}
	if m.JobsCoalesced != n-1 || m.JobsAccepted != n {
		t.Errorf("coalesced %d accepted %d, want %d/%d", m.JobsCoalesced, m.JobsAccepted, n-1, n)
	}
	if m.RequestRecords != n {
		t.Errorf("request records %d, want %d", m.RequestRecords, n)
	}
	if m.LastRequest == nil {
		t.Fatal("no last request timing record")
	} else if m.LastRequest.State != client.StateDone || m.LastRequest.TotalSeconds <= 0 {
		t.Errorf("last request record implausible: %+v", m.LastRequest)
	}
}

// TestCoalesceRealCompiles runs the race with the real flow and no
// blocking stub: whichever mix of leader/follower/cache-hit each of the 8
// submissions lands on, every job is exactly one of the three, and all
// payloads are bit-identical.
func TestCoalesceRealCompiles(t *testing.T) {
	_, c := newTestServer(t, Options{Slots: 2, QueueDepth: 8})
	ctx := context.Background()
	const n = 8

	var wg sync.WaitGroup
	results := make([]*client.JobStatus, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.CompileWait(ctx, smallReq(1))
		}(i)
	}
	wg.Wait()

	var ref []byte
	for i, st := range results {
		if errs[i] != nil {
			t.Fatalf("submission %d: %v", i, errs[i])
		}
		if st.State != client.StateDone {
			t.Fatalf("submission %d ended %s (%s)", i, st.State, st.Error)
		}
		payload, err := c.ResultBytes(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = payload
		} else if !bytes.Equal(ref, payload) {
			t.Fatalf("submission %d payload not bit-identical", i)
		}
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Each accepted job is answered exactly one way: it ran a compile,
	// attached to one, or hit the cache.
	if m.JobsAccepted != n {
		t.Fatalf("accepted %d, want %d", m.JobsAccepted, n)
	}
	if got := m.JobsCompleted + m.JobsCoalesced + m.JobsCacheHits; got != n {
		t.Errorf("completed %d + coalesced %d + cache hits %d = %d, want %d",
			m.JobsCompleted, m.JobsCoalesced, m.JobsCacheHits, got, n)
	}
	if int64(m.Compiles) != m.JobsCompleted {
		t.Errorf("compiles %d != jobs completed %d", m.Compiles, m.JobsCompleted)
	}
	if m.JobsCompleted < 1 || m.JobsCoalesced+m.JobsCacheHits < 1 {
		t.Errorf("no deduplication occurred: %+v", m)
	}
}

// TestFollowerDetachKeepsCompile: withdrawing a follower (DELETE, or a
// disconnected wait) cancels only that record; the shared compile keeps
// running for the remaining waiters.
func TestFollowerDetachKeepsCompile(t *testing.T) {
	s, err := New(Options{Slots: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	b := installBlocking(s)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); s.Close() })
	c := client.NewWith(hs.URL, hs.Client())
	ctx := context.Background()

	leader, err := c.Compile(ctx, smallReq(1)) // fire-and-forget: holds interest
	if err != nil {
		t.Fatal(err)
	}
	<-b.started

	// Follower one attaches fire-and-forget, then detaches via DELETE.
	follower, err := c.Compile(ctx, smallReq(1))
	if err != nil {
		t.Fatal(err)
	}
	if !follower.Coalesced || follower.ID == leader.ID {
		t.Fatalf("duplicate did not coalesce: %+v", follower)
	}
	if _, err := c.Cancel(ctx, follower.ID); err != nil {
		t.Fatal(err)
	}

	// Follower two attaches with wait=1 and disconnects mid-wait.
	body, _ := json.Marshal(smallReq(1))
	wctx, wcancel := context.WithCancel(ctx)
	waitDone := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(wctx, http.MethodPost, hs.URL+"/v1/compile?wait=1", bytes.NewReader(body))
		if err != nil {
			waitDone <- err
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := hs.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		waitDone <- err
	}()
	waitFor(t, "wait=1 follower to attach", func() bool {
		m, err := c.Metrics(ctx)
		return err == nil && m.JobsCoalesced == 2
	})
	wcancel()
	<-waitDone

	waitFor(t, "both follower records to cancel", func() bool {
		m, err := c.Metrics(ctx)
		return err == nil && m.JobsCancelled == 2
	})

	// The compile must still be alive for the leader.
	st, err := c.Job(ctx, leader.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != client.StateRunning {
		t.Fatalf("leader is %s after follower detaches, want running", st.State)
	}
	b.release <- struct{}{}
	final, err := c.Wait(ctx, leader.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != client.StateDone {
		t.Fatalf("leader ended %s (%s), want done", final.State, final.Error)
	}
	fst, err := c.Job(ctx, follower.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fst.State != client.StateCancelled {
		t.Errorf("detached follower is %s, want cancelled", fst.State)
	}
}

// TestLastWaiterDetachCancelsCompile: cancellation is reference-counted —
// the compile aborts only when the last interested submission withdraws.
func TestLastWaiterDetachCancelsCompile(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s, err := New(Options{Slots: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	b := installBlocking(s)
	hs := httptest.NewServer(s.Handler())
	c := client.NewWith(hs.URL, hs.Client())
	ctx := context.Background()

	leader, err := c.Compile(ctx, smallReq(1))
	if err != nil {
		t.Fatal(err)
	}
	<-b.started
	follower, err := c.Compile(ctx, smallReq(1))
	if err != nil {
		t.Fatal(err)
	}

	// First withdrawal: the leader's own record detaches, the compile
	// keeps running for the follower.
	if _, err := c.Cancel(ctx, leader.ID); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // give a wrong implementation time to kill it
	if st, err := c.Job(ctx, follower.ID); err != nil || st.State != client.StateRunning {
		t.Fatalf("follower after leader-record cancel: %+v, %v (want running)", st, err)
	}

	// Second withdrawal is the last: the shared compile aborts.
	if _, err := c.Cancel(ctx, follower.ID); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{leader.ID, follower.ID} {
		st, err := c.Wait(ctx, id, 5*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != client.StateCancelled {
			t.Errorf("job %s ended %s, want cancelled", id, st.State)
		}
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsCancelled != 2 || m.JobsCompleted != 0 || m.Flights != 0 {
		t.Errorf("cancelled %d completed %d flights %d, want 2/0/0", m.JobsCancelled, m.JobsCompleted, m.Flights)
	}

	hs.Close()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d, baseline %d", runtime.NumGoroutine(), baseline)
}

// TestPriorityOrdering: with both classes queued behind a busy slot, the
// freed worker drains interactive work first.
func TestPriorityOrdering(t *testing.T) {
	s, c := newTestServer(t, Options{Slots: 1, QueueDepth: 4})
	b := installBlocking(s)
	ctx := context.Background()

	filler, err := c.Compile(ctx, smallReq(1))
	if err != nil {
		t.Fatal(err)
	}
	if <-b.started != filler.Key {
		t.Fatal("filler did not start first")
	}

	batchReq := smallReq(2) // fire-and-forget defaults to batch
	batch, err := c.Compile(ctx, batchReq)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Priority != client.PriorityBatch {
		t.Fatalf("fire-and-forget priority %q, want batch", batch.Priority)
	}
	interReq := smallReq(3)
	interReq.Priority = client.PriorityInteractive
	inter, err := c.Compile(ctx, interReq)
	if err != nil {
		t.Fatal(err)
	}
	if inter.Priority != client.PriorityInteractive {
		t.Fatalf("priority %q, want interactive", inter.Priority)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.QueueBatch != 1 || m.QueueInteractive != 1 || m.QueueDepth != 2 {
		t.Fatalf("queues batch=%d interactive=%d depth=%d, want 1/1/2", m.QueueBatch, m.QueueInteractive, m.QueueDepth)
	}

	// Free the slot three times; the interactive job must start before the
	// batch job that was submitted ahead of it.
	b.release <- struct{}{}
	b.release <- struct{}{}
	b.release <- struct{}{}
	if got := <-b.started; got != inter.Key {
		t.Fatalf("after the slot freed, %s started first, want interactive %s", got, inter.Key)
	}
	if got := <-b.started; got != batch.Key {
		t.Fatalf("batch job did not start third (got %s)", got)
	}
	for _, id := range []string{filler.ID, batch.ID, inter.ID} {
		st, err := c.Wait(ctx, id, 5*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != client.StateDone {
			t.Errorf("job %s ended %s", id, st.State)
		}
	}
}

// TestBadPriorityRejected: an unknown priority is a 400, not a silent
// default.
func TestBadPriorityRejected(t *testing.T) {
	_, c := newTestServer(t, Options{Slots: 1})
	req := smallReq(1)
	req.Priority = "urgent"
	_, err := c.Compile(context.Background(), req)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("unknown priority returned %v, want 400", err)
	}
}

// TestRetryAfterUpdatedOnFailure: every terminal compile — not only a
// successful one — refreshes the Retry-After estimate.
func TestRetryAfterUpdatedOnFailure(t *testing.T) {
	s, c := newTestServer(t, Options{Slots: 1})
	s.lastJobSeconds.Store(59) // stale estimate from a past slow compile
	s.compileFn = func(ctx context.Context, sp *compileSpec, workers int, ob obs.Observer) (*autoncs.Result, error) {
		return nil, errors.New("boom")
	}
	ctx := context.Background()

	st, err := c.CompileWait(ctx, smallReq(1))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != client.StateFailed {
		t.Fatalf("job ended %s, want failed", st.State)
	}
	if got := s.lastJobSeconds.Load(); got > 1 {
		t.Errorf("lastJobSeconds %d after an instant failure, want <= 1 (stale estimate kept)", got)
	}
	if ra := s.retryAfter(); ra != time.Second {
		t.Errorf("retryAfter %v, want 1s", ra)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsFailed != 1 || m.JobsCompleted != 0 {
		t.Errorf("failed %d completed %d, want 1/0", m.JobsFailed, m.JobsCompleted)
	}
}

// TestOversizedBodyIs413: a body past the MaxBytesReader limit is reported
// as 413, not a generic 400 decode error.
func TestOversizedBodyIs413(t *testing.T) {
	s, err := New(Options{Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); s.Close() })

	huge := fmt.Sprintf(`{"net":"%s"}`, strings.Repeat("x", maxRequestBody+1))
	resp, err := hs.Client().Post(hs.URL+"/v1/compile", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eb.Error, "limit") {
		t.Errorf("413 message %q does not mention the limit", eb.Error)
	}
}
