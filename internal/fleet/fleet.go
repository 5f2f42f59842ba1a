package fleet

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// Default lookup tuning. A peer probe is a LAN round trip for a payload
// that already exists, so the timeout is tight; two attempts with one
// short backoff ride out a single dropped packet or accept hiccup
// without stalling the interactive compile path behind them.
const (
	DefaultLookupTimeout = 2 * time.Second
	DefaultAttempts      = 2
	DefaultBackoff       = 50 * time.Millisecond
)

// maxPeerPayload bounds a peer cache response read; it matches the
// service's own request-body bound with headroom.
const maxPeerPayload = 64 << 20

// Options configures a Fleet.
type Options struct {
	// Self is this member's own base URL; it is added to Peers if absent.
	Self string
	// Peers is the full fleet membership list (base URLs). Order and
	// duplicate spellings do not matter — the ring normalizes both.
	Peers []string
	// VirtualNodes per member; 0 means DefaultVirtualNodes.
	VirtualNodes int
	// Timeout bounds each probe attempt; 0 means DefaultLookupTimeout.
	Timeout time.Duration
	// Attempts per lookup against the chosen peer; 0 means DefaultAttempts.
	Attempts int
	// Backoff before the second attempt, doubling after; 0 means
	// DefaultBackoff.
	Backoff time.Duration
	// FailureThreshold consecutive failures open a peer's breaker;
	// 0 means DefaultFailureThreshold.
	FailureThreshold int
	// RecoveryInterval between re-probes of a dead peer; 0 means
	// DefaultRecoveryInterval.
	RecoveryInterval time.Duration
	// Client is the HTTP client for peer probes; nil builds one with the
	// configured Timeout.
	Client *http.Client
}

// peer is one remote fleet member: its base URL and circuit breaker.
type peer struct {
	url string
	br  *Breaker
}

// Fleet is one member's view of the compile fleet: the shared ring plus a
// circuit breaker and probe client per remote peer. Safe for concurrent
// use.
type Fleet struct {
	self  string
	ring  *Ring
	peers map[string]*peer // remote members only, keyed by normalized URL
	hc    *http.Client

	attempts int
	backoff  time.Duration

	hits   atomic.Int64
	misses atomic.Int64
	errs   atomic.Int64
}

// Stats is a point-in-time snapshot of a Fleet's counters: peer-cache
// hits, healthy-peer misses, failed lookups, and the membership health.
type Stats struct {
	Hits   int64 // lookups answered with a payload by a peer
	Misses int64 // lookups a healthy peer answered "not cached"
	Errors int64 // lookups that failed (timeout, refused, bad response)
	Alive  int   // members currently in the ring (closed breaker + self)
	Total  int   // fleet size including self
}

// New builds a Fleet. Self must normalize to a valid base URL; it is
// added to the membership if the peer list does not already contain it.
func New(o Options) (*Fleet, error) {
	self, err := NormalizeMember(o.Self)
	if err != nil {
		return nil, err
	}
	members := append([]string{self}, o.Peers...)
	ring, err := NewRing(members, o.VirtualNodes)
	if err != nil {
		return nil, err
	}
	timeout := o.Timeout
	if timeout == 0 {
		timeout = DefaultLookupTimeout
	}
	if timeout < 0 {
		return nil, fmt.Errorf("fleet: negative timeout %v", timeout)
	}
	attempts := o.Attempts
	if attempts == 0 {
		attempts = DefaultAttempts
	}
	if attempts < 0 {
		return nil, fmt.Errorf("fleet: negative attempts %d", attempts)
	}
	backoff := o.Backoff
	if backoff == 0 {
		backoff = DefaultBackoff
	}
	hc := o.Client
	if hc == nil {
		hc = &http.Client{Timeout: timeout}
	}
	f := &Fleet{
		self:     self,
		ring:     ring,
		peers:    make(map[string]*peer, ring.Size()-1),
		hc:       hc,
		attempts: attempts,
		backoff:  backoff,
	}
	for _, m := range ring.Members() {
		if m == self {
			continue
		}
		f.peers[m] = &peer{url: m, br: NewBreaker(o.FailureThreshold, o.RecoveryInterval)}
	}
	return f, nil
}

// Self returns this member's normalized base URL.
func (f *Fleet) Self() string { return f.self }

// Ring returns the fleet's consistent-hash ring.
func (f *Fleet) Ring() *Ring { return f.ring }

// Size returns the fleet membership count, self included.
func (f *Fleet) Size() int { return f.ring.Size() }

// Alive counts the members currently in the ring: self plus every remote
// peer whose circuit is closed. An open or half-open (recovering) peer is
// out of the ring until a trial probe succeeds.
func (f *Fleet) Alive() int {
	n := 1
	for _, p := range f.peers {
		if p.br.State() == BreakerClosed {
			n++
		}
	}
	return n
}

// Stats snapshots the lookup counters and membership health.
func (f *Fleet) Stats() Stats {
	return Stats{
		Hits:   f.hits.Load(),
		Misses: f.misses.Load(),
		Errors: f.errs.Load(),
		Alive:  f.Alive(),
		Total:  f.Size(),
	}
}

// Owner returns the ring owner of key (which may be self).
func (f *Fleet) Owner(key [32]byte) string { return f.ring.Owner(key) }

// Owns reports whether this member is the ring owner of key.
func (f *Fleet) Owns(key [32]byte) bool { return f.ring.Owner(key) == f.self }

// Lookup is the outcome of one remote peer-cache probe.
type Lookup struct {
	Peer    string        // the peer probed (the key's effective owner)
	Payload []byte        // the cached bytes, non-nil exactly when Hit
	Hit     bool          // the peer had the payload
	Err     error         // probe failure; a clean miss is not an error
	Elapsed time.Duration // wall time of the whole lookup (all attempts)
}

// Find probes the remote effective owner of key for its cached payload.
// It returns nil when the fleet cannot help — this member is the key's
// effective owner (first live ring node), or every remote candidate ahead
// of self is refusing probes — in which case the caller compiles locally.
//
// The effective owner walks the key's ring successor order skipping
// members whose breaker is open: a dead peer is out of the ring, and the
// keys it owned fall to its successor until a recovery trial brings it
// back. Probes against the chosen peer retry with exponential backoff
// (bounded per-attempt by the HTTP client's timeout); every failure feeds
// the peer's breaker.
//
// Every payload a peer cache holds — a result or a base artifact — is
// JSON, so a served payload that is not (json.Valid) is no hit: the lookup
// fails at once, charging the peer's breaker one failure, since the peer
// is faulty, not unlucky, and a retry would fetch the same bytes.
func (f *Fleet) Find(ctx context.Context, key [32]byte) *Lookup {
	p := f.effectiveOwner(key)
	if p == nil {
		return nil
	}
	start := time.Now()
	var lastErr error
	for attempt := 0; attempt < f.attempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return &Lookup{Peer: p.url, Err: ctx.Err(), Elapsed: time.Since(start)}
			case <-time.After(f.backoff << (attempt - 1)):
			}
		}
		payload, hit, err := f.fetch(ctx, p.url, key)
		if err == nil && hit && !json.Valid(payload) {
			p.br.Failure()
			f.errs.Add(1)
			return &Lookup{Peer: p.url, Elapsed: time.Since(start),
				Err: fmt.Errorf("fleet: peer %s served an invalid payload for key %s", p.url, hex.EncodeToString(key[:]))}
		}
		if err == nil {
			p.br.Success()
			if hit {
				f.hits.Add(1)
			} else {
				f.misses.Add(1)
			}
			return &Lookup{Peer: p.url, Payload: payload, Hit: hit, Elapsed: time.Since(start)}
		}
		if ctx.Err() != nil {
			// The caller abandoned the lookup; that says nothing about the
			// peer's health, so the breaker is not charged.
			return &Lookup{Peer: p.url, Err: err, Elapsed: time.Since(start)}
		}
		p.br.Failure()
		lastErr = err
	}
	f.errs.Add(1)
	return &Lookup{Peer: p.url, Err: lastErr, Elapsed: time.Since(start)}
}

// Has probes the key's remote effective owner with a cheap HEAD request:
// true means the peer holds the payload. Like Find it returns ok=false
// with a nil error when the fleet cannot help. The probe feeds the peer's
// breaker exactly like a full lookup.
func (f *Fleet) Has(ctx context.Context, key [32]byte) (bool, error) {
	p := f.effectiveOwner(key)
	if p == nil {
		return false, nil
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodHead, cacheURL(p.url, key), nil)
	if err != nil {
		return false, err
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			p.br.Failure()
		}
		return false, err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // HEAD carries no body
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		p.br.Success()
		return true, nil
	case http.StatusNotFound:
		p.br.Success()
		return false, nil
	}
	p.br.Failure()
	return false, fmt.Errorf("fleet: peer %s answered %d to a cache probe", p.url, resp.StatusCode)
}

// effectiveOwner returns the first live remote member in the key's ring
// successor order, or nil when self comes first (local compile territory)
// or no remote candidate currently admits probes.
func (f *Fleet) effectiveOwner(key [32]byte) *peer {
	for _, m := range f.ring.Successors(key, 0) {
		if m == f.self {
			return nil
		}
		p := f.peers[m]
		if p.br.Allow() {
			return p
		}
	}
	return nil
}

// fetch GETs one peer's cache entry. (payload, true, nil) on 200,
// (nil, false, nil) on a clean 404 miss, an error otherwise.
func (f *Fleet) fetch(ctx context.Context, peerURL string, key [32]byte) ([]byte, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cacheURL(peerURL, key), nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		payload, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerPayload))
		if err != nil {
			return nil, false, fmt.Errorf("fleet: reading peer payload: %w", err)
		}
		if got := resp.Header.Get("X-Autoncs-Key"); got != "" && got != hex.EncodeToString(key[:]) {
			// A peer serving the wrong key would poison the local cache
			// with a payload that violates the content-address contract.
			return nil, false, fmt.Errorf("fleet: peer %s served key %s, want %s",
				peerURL, got, hex.EncodeToString(key[:]))
		}
		return payload, true, nil
	case http.StatusNotFound:
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
		return nil, false, nil
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
	return nil, false, fmt.Errorf("fleet: peer %s answered %d to a cache fetch", peerURL, resp.StatusCode)
}

// cacheURL renders the peer cache endpoint for key.
func cacheURL(peerURL string, key [32]byte) string {
	return peerURL + "/v1/cache/" + hex.EncodeToString(key[:])
}
