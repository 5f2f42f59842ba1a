package fleet

import (
	"context"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubPeer is a minimal peer cache endpoint: it serves the payloads in
// its map and counts requests.
type stubPeer struct {
	ts       *httptest.Server
	mu       sync.Mutex
	payloads map[string][]byte
	gets     atomic.Int64
	heads    atomic.Int64
	fail     atomic.Bool // when set, every request answers 500
}

func newStubPeer(t *testing.T) *stubPeer {
	t.Helper()
	p := &stubPeer{payloads: map[string][]byte{}}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodHead {
			p.heads.Add(1)
		} else {
			p.gets.Add(1)
		}
		if p.fail.Load() {
			http.Error(w, "injected failure", http.StatusInternalServerError)
			return
		}
		key := r.PathValue("key")
		p.mu.Lock()
		payload, ok := p.payloads[key]
		p.mu.Unlock()
		if !ok {
			http.Error(w, "no such key", http.StatusNotFound)
			return
		}
		w.Header().Set("X-Autoncs-Key", key)
		w.Header().Set("Content-Length", fmt.Sprint(len(payload)))
		if r.Method == http.MethodHead {
			return
		}
		w.Write(payload)
	})
	p.ts = httptest.NewServer(mux)
	t.Cleanup(p.ts.Close)
	return p
}

func (p *stubPeer) put(key [32]byte, payload []byte) {
	p.mu.Lock()
	p.payloads[hex.EncodeToString(key[:])] = payload
	p.mu.Unlock()
}

// newTestFleet builds a fleet whose self is a URL that is NOT one of the
// stub servers (self never serves; it only probes).
func newTestFleet(t *testing.T, stubs []*stubPeer, opts Options) *Fleet {
	t.Helper()
	opts.Self = "http://self.invalid:1"
	for _, s := range stubs {
		opts.Peers = append(opts.Peers, s.ts.URL)
	}
	f, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// keyOwnedBy searches for a key whose effective owner is the given peer.
func keyOwnedBy(t *testing.T, f *Fleet, owner string) [32]byte {
	t.Helper()
	norm, err := NormalizeMember(owner)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100000; i++ {
		k := testKey(i)
		if f.Owner(k) == norm {
			return k
		}
	}
	t.Fatalf("no key owned by %s in 100000 tries", owner)
	return [32]byte{}
}

// TestFleetFindHitMissError covers the three lookup outcomes against one
// live stub peer.
func TestFleetFindHitMissError(t *testing.T) {
	stub := newStubPeer(t)
	f := newTestFleet(t, []*stubPeer{stub}, Options{})
	ctx := context.Background()

	key := keyOwnedBy(t, f, stub.ts.URL)
	payload := []byte(`{"ok":true}`)

	// Miss: the peer is healthy but has nothing.
	lk := f.Find(ctx, key)
	if lk == nil || lk.Hit || lk.Err != nil {
		t.Fatalf("miss lookup = %+v, want clean miss", lk)
	}

	// Hit: payload present, returned verbatim.
	stub.put(key, payload)
	lk = f.Find(ctx, key)
	if lk == nil || !lk.Hit || string(lk.Payload) != string(payload) {
		t.Fatalf("hit lookup = %+v", lk)
	}

	// Error: the peer starts failing; the lookup reports the error after
	// its bounded retries and the stats count it.
	stub.fail.Store(true)
	lk = f.Find(ctx, key)
	if lk == nil || lk.Hit || lk.Err == nil {
		t.Fatalf("error lookup = %+v, want error", lk)
	}
	st := f.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Errors != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 error", st)
	}
}

// TestFleetSelfOwnedKeysSkipRemoteLookup: Find returns nil for keys self
// owns — the caller's local cache is already the authority.
func TestFleetSelfOwnedKeysSkipRemoteLookup(t *testing.T) {
	stub := newStubPeer(t)
	f := newTestFleet(t, []*stubPeer{stub}, Options{})
	key := keyOwnedBy(t, f, "http://self.invalid:1")
	if lk := f.Find(context.Background(), key); lk != nil {
		t.Fatalf("self-owned key probed remotely: %+v", lk)
	}
	if got := stub.gets.Load(); got != 0 {
		t.Fatalf("stub saw %d GETs for a self-owned key", got)
	}
}

// TestFleetFindInvalidPayload: a served payload that is not JSON is a
// failed lookup, not a hit — counted as an error, charged to the peer's
// breaker once, and not retried (the peer would serve the same bytes).
func TestFleetFindInvalidPayload(t *testing.T) {
	stub := newStubPeer(t)
	f := newTestFleet(t, []*stubPeer{stub}, Options{
		FailureThreshold: 1,
		RecoveryInterval: time.Hour,
	})
	ctx := context.Background()
	key := keyOwnedBy(t, f, stub.ts.URL)
	stub.put(key, []byte("not json at all"))

	lk := f.Find(ctx, key)
	if lk == nil || lk.Hit || lk.Payload != nil || lk.Err == nil {
		t.Fatalf("lookup of an invalid payload = %+v, want a failed lookup", lk)
	}
	if st := f.Stats(); st.Hits != 0 || st.Errors != 1 {
		t.Fatalf("stats = %+v, want 0 hits / 1 error", st)
	}
	if n := stub.gets.Load(); n != 1 {
		t.Fatalf("peer fetched %d times, want 1 (no retry of a deterministic bad payload)", n)
	}
	if alive := f.Alive(); alive != 1 {
		t.Fatalf("alive = %d, want 1: the breaker (threshold 1) was not charged", alive)
	}
}

// TestFleetDeadOwnerFallsToSuccessor: once the owner's breaker opens, its
// keys' lookups go to the ring successor — the dead peer is out of the
// ring until recovery.
func TestFleetDeadOwnerFallsToSuccessor(t *testing.T) {
	owner := newStubPeer(t)
	successor := newStubPeer(t)
	f := newTestFleet(t, []*stubPeer{owner, successor}, Options{
		FailureThreshold: 2,
		Attempts:         1,
		Backoff:          time.Millisecond,
		RecoveryInterval: time.Hour, // no recovery during the test
	})
	ctx := context.Background()

	// A key owned by `owner` with `successor` next in ring order. The
	// fleet has three members (self + 2 stubs); retry keys until the
	// successor is the other stub, not self.
	ownerNorm, _ := NormalizeMember(owner.ts.URL)
	succNorm, _ := NormalizeMember(successor.ts.URL)
	var key [32]byte
	found := false
	for i := 0; i < 100000 && !found; i++ {
		k := testKey(i)
		succ := f.Ring().Successors(k, 2)
		if succ[0] == ownerNorm && succ[1] == succNorm {
			key, found = k, true
		}
	}
	if !found {
		t.Fatal("no key with the wanted owner/successor order")
	}

	payload := []byte(`{"from":"successor"}`)
	successor.put(key, payload)
	owner.fail.Store(true)

	// Two failing lookups open the owner's breaker (threshold 2, one
	// attempt each).
	for i := 0; i < 2; i++ {
		if lk := f.Find(ctx, key); lk == nil || lk.Err == nil {
			t.Fatalf("lookup %d against the failing owner = %+v, want error", i, lk)
		}
	}
	if alive := f.Alive(); alive != 2 {
		t.Fatalf("alive = %d after the owner died, want 2 (self + successor)", alive)
	}

	// The next lookup must skip the dead owner and hit the successor.
	lk := f.Find(ctx, key)
	if lk == nil || !lk.Hit || lk.Peer != succNorm {
		t.Fatalf("post-death lookup = %+v, want hit from %s", lk, succNorm)
	}
}

// TestFleetRecoveryReprobesDeadPeer: after the recovery interval one
// trial lookup goes back to the dead peer; a success returns it to the
// ring.
func TestFleetRecoveryReprobesDeadPeer(t *testing.T) {
	stub := newStubPeer(t)
	f := newTestFleet(t, []*stubPeer{stub}, Options{
		FailureThreshold: 1,
		Attempts:         1,
		RecoveryInterval: 50 * time.Millisecond,
	})
	ctx := context.Background()
	key := keyOwnedBy(t, f, stub.ts.URL)
	stub.put(key, []byte(`"x"`))

	stub.fail.Store(true)
	if lk := f.Find(ctx, key); lk == nil || lk.Err == nil {
		t.Fatalf("lookup against failing peer = %+v", lk)
	}
	if f.Alive() != 1 {
		t.Fatalf("alive = %d, want 1 (self only)", f.Alive())
	}
	// Inside the recovery window the dead peer is skipped entirely: with
	// no other member ahead of self, Find cannot help.
	if lk := f.Find(ctx, key); lk != nil {
		t.Fatalf("lookup during open window = %+v, want nil", lk)
	}

	stub.fail.Store(false)
	time.Sleep(60 * time.Millisecond)
	lk := f.Find(ctx, key)
	if lk == nil || !lk.Hit {
		t.Fatalf("recovery trial = %+v, want hit", lk)
	}
	if f.Alive() != 2 {
		t.Fatalf("alive = %d after recovery, want 2", f.Alive())
	}
}

// TestFleetHas exercises the cheap HEAD probe.
func TestFleetHas(t *testing.T) {
	stub := newStubPeer(t)
	f := newTestFleet(t, []*stubPeer{stub}, Options{})
	ctx := context.Background()
	key := keyOwnedBy(t, f, stub.ts.URL)

	if ok, err := f.Has(ctx, key); ok || err != nil {
		t.Fatalf("Has on a miss = %v, %v", ok, err)
	}
	stub.put(key, []byte("payload"))
	if ok, err := f.Has(ctx, key); !ok || err != nil {
		t.Fatalf("Has on a hit = %v, %v", ok, err)
	}
	if heads, gets := stub.heads.Load(), stub.gets.Load(); heads != 2 || gets != 0 {
		t.Fatalf("probe used %d HEADs and %d GETs, want 2/0", heads, gets)
	}
}

// TestFleetConcurrentLookups hammers Find from many goroutines against a
// mix of healthy and failing peers — run under -race in CI — and checks
// no goroutines leak.
func TestFleetConcurrentLookups(t *testing.T) {
	healthy := newStubPeer(t)
	flaky := newStubPeer(t)
	f := newTestFleet(t, []*stubPeer{healthy, flaky}, Options{
		FailureThreshold: 3,
		Attempts:         1,
		RecoveryInterval: time.Millisecond,
	})
	ctx := context.Background()

	keys := make([][32]byte, 64)
	for i := range keys {
		keys[i] = testKey(i)
		// 64-byte JSON strings: Find serves only JSON payloads.
		healthy.put(keys[i], []byte(`"`+strings.Repeat("h", 62)+`"`))
		flaky.put(keys[i], []byte(`"`+strings.Repeat("f", 62)+`"`))
	}

	baseline := runtime.NumGoroutine()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// A toggler flips the flaky peer while lookups are in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				flaky.fail.Store(!flaky.fail.Load())
			}
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := keys[(g*200+i)%len(keys)]
				lk := f.Find(ctx, k)
				if lk != nil && lk.Hit && len(lk.Payload) != 64 {
					t.Errorf("short payload: %d bytes", len(lk.Payload))
					return
				}
				if i%50 == 0 {
					f.Stats() // concurrent stats reads race-check the counters
					f.Has(ctx, k)
				}
			}
		}(g)
	}
	close(stop)
	wg.Wait()

	// Idle keep-alive connections hold transport read/write goroutines;
	// they are pool state, not leaks.
	f.hc.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("goroutines leaked: %d, baseline %d", n, baseline)
	}
}

// TestFleetNewValidation covers the constructor's error paths.
func TestFleetNewValidation(t *testing.T) {
	if _, err := New(Options{Self: "not-a-url"}); err == nil {
		t.Error("invalid self accepted")
	}
	if _, err := New(Options{Self: "http://a:1", Peers: []string{"bad"}}); err == nil {
		t.Error("invalid peer accepted")
	}
	if _, err := New(Options{Self: "http://a:1", Timeout: -time.Second}); err == nil {
		t.Error("negative timeout accepted")
	}
	// A single-member fleet (self only) is valid and inert.
	f, err := New(Options{Self: "http://a:1"})
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 1 || f.Alive() != 1 {
		t.Errorf("singleton fleet size/alive = %d/%d", f.Size(), f.Alive())
	}
	if lk := f.Find(context.Background(), testKey(1)); lk != nil {
		t.Errorf("singleton fleet probed remotely: %+v", lk)
	}
	// Self listed among the peers must not double-count.
	f, err = New(Options{Self: "http://a:1", Peers: []string{"http://a:1/", "http://b:1"}})
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 2 {
		t.Errorf("fleet size = %d, want 2", f.Size())
	}
}
