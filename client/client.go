package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client talks to one autoncsd instance. The zero value is not usable; use
// New.
type Client struct {
	base string
	http *http.Client
}

// New returns a client for the service at baseURL (e.g.
// "http://127.0.0.1:8080"). A trailing slash is tolerated.
func New(baseURL string) *Client {
	return &Client{base: strings.TrimRight(baseURL, "/"), http: &http.Client{}}
}

// NewWith returns a client using a caller-supplied http.Client (custom
// timeouts, transports, or httptest clients).
func NewWith(baseURL string, hc *http.Client) *Client {
	c := New(baseURL)
	if hc != nil {
		c.http = hc
	}
	return c
}

// APIError is a non-2xx response from the service.
type APIError struct {
	Status  int    // HTTP status code
	Message string // the server's error field (or raw body)
	// Code is the stable machine-readable error discriminator (one of the
	// Code* constants), empty on errors the status code fully describes.
	Code       string
	RetryAfter time.Duration // parsed Retry-After on 429/503, else 0
}

func (e *APIError) Error() string {
	return fmt.Sprintf("autoncsd: %d %s: %s", e.Status, http.StatusText(e.Status), e.Message)
}

// IsRetryable reports whether the request may be retried later (the queue
// was full or the daemon is draining).
func (e *APIError) IsRetryable() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// Compile submits a compile request and returns immediately with the job's
// status — done already when the result was served from the cache, queued
// otherwise.
func (c *Client) Compile(ctx context.Context, req CompileRequest) (*JobStatus, error) {
	return c.post(ctx, "/v1/compile", req)
}

// CompileWait submits a compile request and blocks until the job finishes;
// the returned status embeds the result payload. Cancelling ctx aborts the
// job server-side (the disconnect propagates into the flow's
// context-cancellation plumbing).
func (c *Client) CompileWait(ctx context.Context, req CompileRequest) (*JobStatus, error) {
	return c.post(ctx, "/v1/compile?wait=1", req)
}

// Job fetches the current status of a job.
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.get(ctx, "/v1/jobs/"+id, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// JobWait blocks server-side until the job reaches a terminal state and
// returns it. Unlike CompileWait, disconnecting does not cancel the job —
// this is a passive watch, safe to use from multiple observers at once.
func (c *Client) JobWait(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.get(ctx, "/v1/jobs/"+id+"?wait=1", &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Wait polls a job until it leaves the queued/running states.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (*JobStatus, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if st.State != StateQueued && st.State != StateRunning {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-t.C:
		}
	}
}

// Cancel aborts a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) (*JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	var st JobStatus
	if err := c.do(req, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Result fetches and decodes a finished job's result.
func (c *Client) Result(ctx context.Context, id string) (*Result, error) {
	raw, err := c.ResultBytes(ctx, id)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("autoncsd: decoding result: %w", err)
	}
	return &r, nil
}

// ResultBytes fetches a finished job's result payload verbatim. Because
// the payload is the unit of content-addressed caching, two jobs with the
// same key return bit-identical bytes — the e2e tests assert exactly that.
func (c *Client) ResultBytes(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/results/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, apiError(resp, body)
	}
	return body, nil
}

// Metrics fetches the serving counters.
func (c *Client) Metrics(ctx context.Context) (*Metrics, error) {
	var m Metrics
	if err := c.get(ctx, "/metrics", &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// Health probes GET /healthz. A draining daemon answers 503 with a valid
// body, so Health returns the parsed body alongside a nil error for both
// "ok" and "draining".
func (c *Client) Health(ctx context.Context) (*Health, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return nil, err
	}
	var h Health
	if json.Unmarshal(body, &h) == nil && h.Status != "" {
		return &h, nil
	}
	return nil, apiError(resp, body)
}

// maxBody bounds every response read; results for large networks run to a
// few MB, far under this.
const maxBody = 64 << 20

func (c *Client) post(ctx context.Context, path string, body CompileRequest) (*JobStatus, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var st JobStatus
	if err := c.do(req, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return apiError(resp, body)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("autoncsd: decoding %s response: %w", req.URL.Path, err)
	}
	return nil
}

func apiError(resp *http.Response, body []byte) error {
	e := &APIError{Status: resp.StatusCode}
	var eb errorBody
	if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
		e.Message = eb.Error
		e.Code = eb.Code
	} else {
		e.Message = strings.TrimSpace(string(body))
	}
	// Retry-After comes in two RFC 9110 forms: delta-seconds (what
	// autoncsd emits) and an HTTP-date (what a proxy in front of it may
	// rewrite it to). Parse both so the estimate survives either path.
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
			e.RetryAfter = time.Duration(secs) * time.Second
		} else if at, err := http.ParseTime(s); err == nil {
			if d := time.Until(at); d > 0 {
				e.RetryAfter = d
			}
		}
	}
	return e
}
