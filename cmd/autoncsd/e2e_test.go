package main

// End-to-end test against a real autoncsd binary. It is gated on the
// AUTONCSD_BIN environment variable so `go test ./...` stays hermetic:
//
//	go build -o /tmp/autoncsd ./cmd/autoncsd
//	AUTONCSD_BIN=/tmp/autoncsd go test -v -run TestDaemonE2E ./cmd/autoncsd/
//
// The daemon is started on an ephemeral port (-addr 127.0.0.1:0) and its
// address scraped from the startup line. The test proves the serving
// guarantees end to end: a repeated compile is a bit-identical cache hit
// visible in /metrics, the ?wait=1 result of a compile and of its cache
// hit is the stored payload verbatim (byte-identical to GET
// /v1/results/{id} and GET /v1/cache/{key}), two concurrent identical
// submissions coalesce onto
// one compile and return the same X-Autoncs-Key payload bytes (with the
// coalesced/cache-hit counters and per-request timing on /metrics),
// submissions beyond capacity get 429, and SIGTERM drains in-flight work
// before the process exits cleanly.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro"
	"repro/client"
)

// startDaemon launches the binary and returns a client, the daemon's base
// URL (for raw HTTP assertions the client does not expose, like response
// headers), and the command handle (its process group is the test's to
// signal).
func startDaemon(t *testing.T, extraArgs ...string) (*client.Client, string, *exec.Cmd) {
	t.Helper()
	bin := os.Getenv("AUTONCSD_BIN")
	if bin == "" {
		t.Skip("AUTONCSD_BIN not set; build cmd/autoncsd and point AUTONCSD_BIN at it")
	}
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})

	lines := bufio.NewScanner(stdout)
	deadline := time.After(10 * time.Second)
	got := make(chan string, 1)
	go func() {
		for lines.Scan() {
			if rest, ok := strings.CutPrefix(lines.Text(), "autoncsd listening on "); ok {
				got <- rest
				return
			}
		}
		close(got)
	}()
	select {
	case url, ok := <-got:
		if !ok {
			t.Fatal("daemon exited before printing its address")
		}
		return client.New(url), url, cmd
	case <-deadline:
		t.Fatal("daemon never printed its listening address")
		return nil, "", nil
	}
}

func TestDaemonE2E(t *testing.T) {
	c, baseURL, cmd := startDaemon(t, "-slots", "1", "-queue", "1")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	if h, err := c.Health(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("healthz: %v / %+v", err, h)
	}

	// The README's 400-neuron example, compiled twice: the second request
	// must be served from the cache, bit-identically.
	req := client.CompileRequest{Random: &client.RandomSpec{N: 400, Sparsity: 0.94, Seed: 1}}
	first, err := c.CompileWait(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.State != client.StateDone || first.Cached {
		t.Fatalf("first compile: %+v", first)
	}
	firstBytes, err := c.ResultBytes(ctx, first.ID)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.CompileWait(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.Key != first.Key {
		t.Fatalf("second compile not a cache hit: %+v", second)
	}
	secondBytes, err := c.ResultBytes(ctx, second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(firstBytes, secondBytes) {
		t.Fatal("cached result not bit-identical")
	}
	// The verbatim-payload contract: for the fresh compile and for its
	// cache hit, the ?wait=1 result, GET /v1/results/{id} and GET
	// /v1/cache/{key} are the same bytes — the stored payload, sent as is.
	resp, err := http.Get(baseURL + "/v1/cache/" + first.Key)
	if err != nil {
		t.Fatal(err)
	}
	storedBytes, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/cache/%s: status %d, %v", first.Key, resp.StatusCode, err)
	}
	for _, st := range []*client.JobStatus{first, second} {
		results, err := c.ResultBytes(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(st.Result, results) || !bytes.Equal(results, storedBytes) {
			t.Fatalf("job %s (cached %v): ?wait=1 result, /v1/results and /v1/cache differ (%d, %d, %d bytes)",
				st.ID, st.Cached, len(st.Result), len(results), len(storedBytes))
		}
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.CacheHits != 1 {
		t.Fatalf("metrics cache_hits = %d, want 1", m.CacheHits)
	}
	if m.JobsCacheHits != 1 {
		t.Fatalf("metrics jobs_cache_hits = %d, want 1", m.JobsCacheHits)
	}

	// Two concurrent identical submissions of an uncached network: they
	// coalesce onto one compile and both return the same payload under the
	// same X-Autoncs-Key.
	dupReq := client.CompileRequest{Random: &client.RandomSpec{N: 400, Sparsity: 0.94, Seed: 2}}
	type dup struct {
		st  *client.JobStatus
		err error
	}
	dups := make(chan dup, 2)
	for i := 0; i < 2; i++ {
		go func() {
			st, err := c.CompileWait(ctx, dupReq)
			dups <- dup{st, err}
		}()
	}
	var dupJobs []*client.JobStatus
	for i := 0; i < 2; i++ {
		d := <-dups
		if d.err != nil {
			t.Fatalf("duplicate submission: %v", d.err)
		}
		if d.st.State != client.StateDone {
			t.Fatalf("duplicate submission ended %s: %s", d.st.State, d.st.Error)
		}
		dupJobs = append(dupJobs, d.st)
	}
	var dupPayloads [][]byte
	var dupKeys []string
	for _, st := range dupJobs {
		resp, err := http.Get(baseURL + st.ResultURL)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result fetch for %s: status %d", st.ID, resp.StatusCode)
		}
		dupPayloads = append(dupPayloads, payload)
		dupKeys = append(dupKeys, resp.Header.Get("X-Autoncs-Key"))
	}
	if dupKeys[0] == "" || dupKeys[0] != dupKeys[1] {
		t.Fatalf("X-Autoncs-Key headers differ or are missing: %q vs %q", dupKeys[0], dupKeys[1])
	}
	if !bytes.Equal(dupPayloads[0], dupPayloads[1]) {
		t.Fatal("coalesced duplicate payload not bit-identical")
	}
	m, err = c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The pair ran exactly one compile: two so far in this daemon's life
	// (the first request's, and this one).
	if m.Compiles != 2 || m.JobsCompleted != 2 {
		t.Fatalf("compiles %d jobs_completed %d after the duplicate pair, want 2/2", m.Compiles, m.JobsCompleted)
	}
	if m.JobsCoalesced != 1 {
		t.Fatalf("metrics jobs_coalesced = %d, want 1", m.JobsCoalesced)
	}
	if m.RequestRecords == 0 || m.LastRequest == nil {
		t.Fatalf("per-request timing missing from /metrics: records=%d last=%v", m.RequestRecords, m.LastRequest)
	}

	// Saturate the single slot + single queue entry with slow fresh
	// compiles; the next submission must bounce with 429.
	var ids []string
	sawReject := false
	for seed := int64(10); seed < 16; seed++ {
		st, err := c.Compile(ctx, client.CompileRequest{Random: &client.RandomSpec{N: 400, Sparsity: 0.94, Seed: seed}})
		if err == nil {
			ids = append(ids, st.ID)
			continue
		}
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
			t.Fatalf("saturation submit: %v, want 429", err)
		}
		if apiErr.RetryAfter <= 0 {
			t.Errorf("429 without Retry-After: %+v", apiErr)
		}
		sawReject = true
		break
	}
	if !sawReject {
		t.Fatal("queue never saturated (slots=1 queue=1 accepted 6 jobs)")
	}
	if len(ids) == 0 {
		t.Fatal("no job accepted before saturation")
	}

	// SIGTERM with those jobs still in flight: the daemon must finish them
	// (drain) and exit 0. Blocking watchers attach first — the daemon keeps
	// its listener open until the drain completes, so each watcher receives
	// the terminal state before the process exits.
	type watch struct {
		id  string
		st  *client.JobStatus
		err error
	}
	watches := make(chan watch, len(ids))
	for _, id := range ids {
		go func(id string) {
			st, err := c.JobWait(ctx, id)
			watches <- watch{id, st, err}
		}(id)
	}
	time.Sleep(200 * time.Millisecond) // let the watchers connect
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for range ids {
		wr := <-watches
		if wr.err != nil {
			t.Fatalf("watching %s during drain: %v", wr.id, wr.err)
		}
		if wr.st.State != client.StateDone {
			t.Errorf("job %s ended %s after SIGTERM, want done (drain must finish in-flight work)", wr.id, wr.st.State)
		}
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exit after SIGTERM: %v", err)
	}
}

// TestDaemonDeltaE2E drives the incremental-recompile protocol against a
// real daemon: a full compile leaves an artifact, an edited resubmission
// with ?base=<key> (the query-parameter spelling) runs as a delta whose
// X-Autoncs-Key lineage is bit-stable — the identical delta resubmitted
// through the client's Base field hits the cache under the same key with
// byte-identical payload — and a config-vector mismatch is the typed 409.
func TestDaemonDeltaE2E(t *testing.T) {
	c, baseURL, _ := startDaemon(t, "-slots", "1")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	base, err := c.CompileWait(ctx, client.CompileRequest{Random: &client.RandomSpec{N: 240, Sparsity: 0.95, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if base.State != client.StateDone {
		t.Fatalf("base compile: %+v", base)
	}

	// The same network the daemon built, with a small localized edit: two
	// connections removed in one window, two added in a disjoint one.
	edited := autoncs.RandomSparseNetwork(240, 0.95, 3).Clone()
	removed, added := 0, 0
	for i := 10; i < 40 && removed < 2; i++ {
		for j := 10; j < 40; j++ {
			if i != j && edited.Has(i, j) {
				edited.Clear(i, j)
				removed++
				break
			}
		}
	}
	for i := 60; i < 90 && added < 2; i++ {
		for j := 60; j < 90; j++ {
			if i != j && !edited.Has(i, j) {
				edited.Set(i, j)
				added++
				break
			}
		}
	}
	if removed != 2 || added != 2 {
		t.Fatalf("edit construction removed %d added %d, want 2/2", removed, added)
	}
	var netText strings.Builder
	if err := edited.Write(&netText); err != nil {
		t.Fatal(err)
	}

	// First delta through the raw query-parameter spelling.
	body, err := json.Marshal(client.CompileRequest{Net: netText.String(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/compile?wait=1&base="+base.Key, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var delta client.JobStatus
	derr := json.NewDecoder(resp.Body).Decode(&delta)
	resp.Body.Close()
	if derr != nil {
		t.Fatal(derr)
	}
	if resp.StatusCode != http.StatusOK || delta.State != client.StateDone {
		t.Fatalf("delta compile: status %d %+v", resp.StatusCode, delta)
	}
	if delta.BaseKey != base.Key {
		t.Fatalf("delta base_key %q, want %q", delta.BaseKey, base.Key)
	}
	if delta.Key == base.Key {
		t.Fatal("delta result key equals the base key")
	}

	// X-Autoncs-Key lineage: the result serves under the delta key, and the
	// identical resubmission (client Base field this time) is a cache hit
	// with byte-identical payload under the same key.
	resp, err = http.Get(baseURL + delta.ResultURL)
	if err != nil {
		t.Fatal(err)
	}
	deltaBytes, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-Autoncs-Key"); got != delta.Key {
		t.Fatalf("X-Autoncs-Key %q, want delta key %q", got, delta.Key)
	}
	again, err := c.CompileWait(ctx, client.CompileRequest{Net: netText.String(), Seed: 1, Base: base.Key})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Key != delta.Key || again.BaseKey != base.Key {
		t.Fatalf("delta resubmission: cached %v key %s base %s", again.Cached, again.Key, again.BaseKey)
	}
	againBytes, err := c.ResultBytes(ctx, again.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(deltaBytes, againBytes) {
		t.Fatal("delta lineage not bit-stable: cached payload differs")
	}

	// Typed 409: a delta request under a different config vector.
	_, err = c.CompileWait(ctx, client.CompileRequest{Net: netText.String(), Seed: 2, Base: base.Key})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict || apiErr.Code != client.CodeBaseConfigMismatch {
		t.Fatalf("config mismatch: want 409 %s, got %v", client.CodeBaseConfigMismatch, err)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.DeltaCompiles != 1 || m.LastDelta == nil {
		t.Fatalf("delta metrics: compiles %d last %v", m.DeltaCompiles, m.LastDelta)
	}
	if m.LastDelta.ClusterReuseFrac == 0 || m.LastDelta.RouteReuseFrac == 0 {
		t.Errorf("delta reused nothing: %+v", m.LastDelta)
	}
}

// TestDaemonDiskCache restarts the daemon over the same -cache-dir and
// checks the second process serves the first one's result from disk.
func TestDaemonDiskCache(t *testing.T) {
	if os.Getenv("AUTONCSD_BIN") == "" {
		t.Skip("AUTONCSD_BIN not set")
	}
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	req := client.CompileRequest{Random: &client.RandomSpec{N: 200, Sparsity: 0.94, Seed: 1}, SkipPhysical: true}

	c1, _, cmd1 := startDaemon(t, "-cache-dir", dir)
	first, err := c1.CompileWait(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	firstBytes, err := c1.ResultBytes(ctx, first.ID)
	if err != nil {
		t.Fatal(err)
	}
	cmd1.Process.Signal(syscall.SIGTERM)
	if err := cmd1.Wait(); err != nil {
		t.Fatalf("first daemon exit: %v", err)
	}

	c2, _, _ := startDaemon(t, "-cache-dir", dir)
	second, err := c2.CompileWait(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("restarted daemon recompiled instead of reading the disk cache")
	}
	secondBytes, err := c2.ResultBytes(ctx, second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(firstBytes, secondBytes) {
		t.Fatal("disk-cached result not bit-identical across restarts")
	}
}
