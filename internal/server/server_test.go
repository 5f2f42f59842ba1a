package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/client"
	"repro/internal/obs"
)

// newTestServer stands up a Server with an httptest front end and returns
// the API client. The server is drained at cleanup so no test leaks the
// worker pool.
func newTestServer(t *testing.T, opts Options) (*Server, *client.Client) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, client.NewWith(hs.URL, hs.Client())
}

// smallReq compiles quickly (sub-second) but still runs the full flow.
func smallReq(seed int64) client.CompileRequest {
	return client.CompileRequest{Random: &client.RandomSpec{N: 120, Sparsity: 0.92, Seed: 5}, Seed: seed}
}

// TestCompileCacheHitBitIdentical is the core serving contract: the second
// identical request is answered from the cache, with bit-identical result
// bytes and a recorded cache-hit metric.
func TestCompileCacheHitBitIdentical(t *testing.T) {
	_, c := newTestServer(t, Options{Slots: 1})
	ctx := context.Background()

	first, err := c.CompileWait(ctx, smallReq(1))
	if err != nil {
		t.Fatal(err)
	}
	if first.State != client.StateDone || first.Cached {
		t.Fatalf("first compile: state %s cached %v", first.State, first.Cached)
	}
	if first.ElapsedSeconds <= 0 || len(first.StageTimes) == 0 {
		t.Errorf("first compile carries no timings: %+v", first)
	}
	firstBytes, err := c.ResultBytes(ctx, first.ID)
	if err != nil {
		t.Fatal(err)
	}

	second, err := c.CompileWait(ctx, smallReq(1))
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.State != client.StateDone {
		t.Fatalf("second compile not served from cache: %+v", second)
	}
	if second.Key != first.Key {
		t.Fatalf("keys differ: %s vs %s", second.Key, first.Key)
	}
	secondBytes, err := c.ResultBytes(ctx, second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(firstBytes, secondBytes) {
		t.Fatal("cached result bytes are not bit-identical to the computed ones")
	}

	res, err := c.Result(ctx, second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Key != second.Key || res.Crossbars == 0 || res.Report == nil || len(res.Assignment) == 0 {
		t.Errorf("decoded result incomplete: %+v", res)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Errorf("cache metrics hits=%d misses=%d, want 1/1", m.CacheHits, m.CacheMisses)
	}
	// Completed counts compiles run, not jobs answered: the cache hit has
	// its own counter and must not inflate JobsCompleted.
	if m.JobsCompleted != 1 || m.Compiles != 1 {
		t.Errorf("jobs completed %d compiles %d, want 1/1", m.JobsCompleted, m.Compiles)
	}
	if m.JobsCacheHits != 1 {
		t.Errorf("jobs cache hits %d, want 1", m.JobsCacheHits)
	}
	if m.JobsAccepted != 2 {
		t.Errorf("jobs accepted %d, want 2", m.JobsAccepted)
	}
	if m.StageSeconds["clustering"] <= 0 {
		t.Errorf("no clustering stage time surfaced: %v", m.StageSeconds)
	}
}

// TestDifferentConfigsMissCache: a semantically different request must not
// hit the first one's cache entry.
func TestDifferentConfigsMissCache(t *testing.T) {
	_, c := newTestServer(t, Options{Slots: 1})
	ctx := context.Background()
	a, err := c.CompileWait(ctx, smallReq(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.CompileWait(ctx, smallReq(2)) // different flow seed
	if err != nil {
		t.Fatal(err)
	}
	if b.Cached || b.Key == a.Key {
		t.Fatalf("different seed served from cache (keys %s / %s)", a.Key, b.Key)
	}
}

// blockingCompile substitutes the compile with one that parks until
// released (or its context dies), making queue states deterministic.
type blockingCompile struct {
	started chan string   // receives the job's key each time a compile starts
	release chan struct{} // closed (or fed) to let compiles finish
}

func installBlocking(s *Server) *blockingCompile {
	b := &blockingCompile{started: make(chan string, 16), release: make(chan struct{}, 16)}
	s.compileFn = func(ctx context.Context, sp *compileSpec, workers int, ob obs.Observer) (*autoncs.Result, error) {
		b.started <- sp.key.Hex()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-b.release:
		}
		return sp.run(ctx, workers, ob)
	}
	return b
}

// TestQueueSaturationReturns429: with one slot and a queue depth of one,
// the third concurrent request is rejected with 429 and a Retry-After.
func TestQueueSaturationReturns429(t *testing.T) {
	s, c := newTestServer(t, Options{Slots: 1, QueueDepth: 1})
	b := installBlocking(s)
	ctx := context.Background()

	running, err := c.Compile(ctx, smallReq(1))
	if err != nil {
		t.Fatal(err)
	}
	<-b.started // the slot is now occupied
	queued, err := c.Compile(ctx, smallReq(2))
	if err != nil {
		t.Fatal(err)
	}

	_, err = c.Compile(ctx, smallReq(3))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("overflow submission returned %v, want APIError", err)
	}
	if apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", apiErr.Status)
	}
	if apiErr.RetryAfter < time.Second {
		t.Errorf("Retry-After %v, want >= 1s", apiErr.RetryAfter)
	}
	if !apiErr.IsRetryable() {
		t.Error("429 not reported as retryable")
	}

	// The rejected job must not exist as a queryable record.
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsRejected != 1 || m.JobsAccepted != 2 {
		t.Errorf("rejected %d accepted %d, want 1/2", m.JobsRejected, m.JobsAccepted)
	}

	// Release both; everything accepted completes.
	b.release <- struct{}{}
	b.release <- struct{}{}
	for _, id := range []string{running.ID, queued.ID} {
		st, err := c.Wait(ctx, id, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != client.StateDone {
			t.Errorf("job %s finished %s: %s", id, st.State, st.Error)
		}
	}
}

// TestDrainCompletesInFlight: draining stops intake (healthz flips to 503,
// new submissions get 503) but runs accepted jobs to completion.
func TestDrainCompletesInFlight(t *testing.T) {
	s, c := newTestServer(t, Options{Slots: 1, QueueDepth: 2})
	b := installBlocking(s)
	ctx := context.Background()

	inflight, err := c.Compile(ctx, smallReq(1))
	if err != nil {
		t.Fatal(err)
	}
	<-b.started
	queued, err := c.Compile(ctx, smallReq(2))
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()

	// Drain is observable before it completes.
	deadline := time.Now().Add(5 * time.Second)
	for {
		h, err := c.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if h.Status == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, err = c.Compile(ctx, smallReq(3))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("submission during drain returned %v, want 503", err)
	}

	b.release <- struct{}{}
	b.release <- struct{}{}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for _, id := range []string{inflight.ID, queued.ID} {
		st, err := c.Job(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != client.StateDone {
			t.Errorf("job %s ended %s after drain, want done", id, st.State)
		}
	}
}

// TestDrainTimeoutCancelsStragglers: an expiring drain context cancels the
// in-flight compile rather than hanging.
func TestDrainTimeoutCancelsStragglers(t *testing.T) {
	s, c := newTestServer(t, Options{Slots: 1, QueueDepth: 1})
	b := installBlocking(s)
	ctx := context.Background()

	st, err := c.Compile(ctx, smallReq(1))
	if err != nil {
		t.Fatal(err)
	}
	<-b.started // in flight, never released

	dctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain returned %v, want deadline exceeded", err)
	}
	final, err := c.Job(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != client.StateCancelled {
		t.Errorf("straggler ended %s, want cancelled", final.State)
	}
}

// TestSubmitRacingDrain: submissions racing Drain each get exactly one
// answer, accepted (2xx) or 503 — never a hang, a 500, or a dropped
// connection from a send on a closed queue — and every accepted job is
// terminal once Drain returns, so no accepted submission is lost.
func TestSubmitRacingDrain(t *testing.T) {
	const n = 32
	req := func(seed int64) client.CompileRequest {
		r := smallReq(seed)
		r.SkipPhysical = true
		return r
	}
	sp, err := buildSpec(req(0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sp.run(context.Background(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, c := newTestServer(t, Options{Slots: 2, QueueDepth: n})
	s.compileFn = func(context.Context, *compileSpec, int, obs.Observer) (*autoncs.Result, error) {
		return res, nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	start := make(chan struct{})
	sts := make([]*client.JobStatus, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			sts[i], errs[i] = c.Compile(ctx, req(int64(i+1)))
		}(i)
	}
	// Drain once a quarter of the submissions are in, so the rest race it.
	drained := make(chan error, 1)
	go func() {
		for s.accepted.Load() < n/4 && ctx.Err() == nil {
			time.Sleep(50 * time.Microsecond)
		}
		drained <- s.Drain(ctx)
	}()
	close(start)
	wg.Wait()
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}

	accepted := 0
	for i, err := range errs {
		if err != nil {
			var apiErr *client.APIError
			if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
				t.Errorf("submission %d: %v, want accepted or 503", i, err)
			}
			continue
		}
		accepted++
		j, ok := s.jobByID(sts[i].ID)
		if !ok {
			t.Errorf("submission %d: accepted job %s has no record", i, sts[i].ID)
		} else if !j.terminal() {
			t.Errorf("submission %d: job %s not terminal after Drain", i, j.id)
		}
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsAccepted != int64(accepted) {
		t.Errorf("jobs_accepted %d, want the %d accepted answers", m.JobsAccepted, accepted)
	}
	t.Logf("%d of %d submissions accepted before the drain", accepted, n)
}

// TestCancelRunningJobLeaksNoGoroutines reuses the PR-3 leak-check
// pattern: DELETE a mid-flow job, then require the goroutine count to
// settle back to the baseline.
func TestCancelRunningJobLeaksNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s, err := New(Options{Slots: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	c := client.NewWith(hs.URL, hs.Client())
	ctx := context.Background()

	// A large enough compile to still be mid-flow when the DELETE lands.
	st, err := c.Compile(ctx, client.CompileRequest{Random: &client.RandomSpec{N: 400, Sparsity: 0.94, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it is actually running so the cancel exercises the
	// mid-stage path, not the queued fast path.
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, err := c.Job(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == client.StateRunning {
			break
		}
		if cur.State != client.StateQueued {
			t.Fatalf("job reached %s before cancel", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != client.StateCancelled {
		t.Fatalf("cancelled job ended %s (%s)", final.State, final.Error)
	}
	if _, err := c.ResultBytes(ctx, st.ID); err == nil {
		t.Error("cancelled job served a result")
	}

	hs.Close()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The worker pool, the job's flow goroutines, and the HTTP server are
	// gone; only the baseline may remain.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked after cancellation: %d, baseline %d", runtime.NumGoroutine(), baseline)
}

// TestBadRequests: every malformed submission is a 400 with a JSON error.
func TestBadRequests(t *testing.T) {
	_, c := newTestServer(t, Options{Slots: 1})
	ctx := context.Background()
	cases := []struct {
		name string
		req  client.CompileRequest
	}{
		{"no source", client.CompileRequest{}},
		{"two sources", client.CompileRequest{Testbench: 1, Random: &client.RandomSpec{N: 10, Sparsity: 0.5}}},
		{"bad testbench", client.CompileRequest{Testbench: 9}},
		{"bad random n", client.CompileRequest{Random: &client.RandomSpec{N: -1, Sparsity: 0.5}}},
		{"oversized random n", client.CompileRequest{Random: &client.RandomSpec{N: 100000, Sparsity: 0.5}}},
		{"bad sparsity", client.CompileRequest{Random: &client.RandomSpec{N: 10, Sparsity: 1.5}}},
		{"bad net text", client.CompileRequest{Net: "not a network"}},
		{"edgeless net", client.CompileRequest{Net: "autoncs-net v1\nn 4\n"}},
		{"bad quantile", client.CompileRequest{Random: &client.RandomSpec{N: 10, Sparsity: 0.5}, SelectionQuantile: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.Compile(ctx, tc.req)
			var apiErr *client.APIError
			if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
				t.Fatalf("got %v, want 400 APIError", err)
			}
			if apiErr.Message == "" {
				t.Error("empty error message")
			}
		})
	}
	if _, err := c.Job(ctx, "j-999999"); err == nil {
		t.Error("unknown job id found")
	}
}

// TestNetTextSourceAndKeyStability: a text-format network compiles, and
// the same network submitted as text twice hits the cache.
func TestNetTextSourceAndKeyStability(t *testing.T) {
	_, c := newTestServer(t, Options{Slots: 1})
	ctx := context.Background()
	var buf bytes.Buffer
	if err := autoncs.RandomSparseNetwork(100, 0.92, 3).Write(&buf); err != nil {
		t.Fatal(err)
	}
	req := client.CompileRequest{Net: buf.String(), SkipPhysical: true}
	a, err := c.CompileWait(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	bst, err := c.CompileWait(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bst.Cached || bst.Key != a.Key {
		t.Fatalf("identical text network missed the cache: %+v vs %+v", a, bst)
	}
	res, err := c.Result(ctx, a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report != nil {
		t.Error("skip_physical result carries a report")
	}
}

// TestFullCroKeysDisjoint: the baseline flow of the same inputs caches
// under its own key.
func TestFullCroKeysDisjoint(t *testing.T) {
	_, c := newTestServer(t, Options{Slots: 1})
	ctx := context.Background()
	req := smallReq(1)
	req.SkipPhysical = true
	isc, err := c.CompileWait(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	req.FullCro = true
	full, err := c.CompileWait(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if full.Cached || full.Key == isc.Key {
		t.Fatalf("fullcro shares the ISC key space: %s vs %s", full.Key, isc.Key)
	}
}
