package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestRetryAfterHTTPDate: the HTTP-date form of Retry-After — what a
// proxy in front of the daemon may rewrite delta-seconds to — parses into
// a sane duration.
func TestRetryAfterHTTPDate(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", time.Now().Add(30*time.Second).UTC().Format(http.TimeFormat))
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(map[string]string{"error": "queue full"}) //nolint:errcheck
	}))
	defer hs.Close()
	c := New(hs.URL)
	_, err := c.Metrics(context.Background())
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error %v, want APIError", err)
	}
	if ae.RetryAfter < 20*time.Second || ae.RetryAfter > 31*time.Second {
		t.Fatalf("RetryAfter %v, want ~30s from the HTTP-date form", ae.RetryAfter)
	}
}
