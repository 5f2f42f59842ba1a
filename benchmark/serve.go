package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	autoncs "repro"
	"repro/client"
	"repro/internal/server"
	"repro/internal/xbar"
)

const (
	// hotShare is the share of interactive requests that re-open one of the
	// session's designs (a cache hit); the rest are delta edits.
	hotShare = 0.75
	// serveEdits is how many connections one interactive edit toggles.
	serveEdits = 4
	// sessionBases is how many designs a session has open: it edits the
	// first and re-opens any of them.
	sessionBases = 3
	// thinkTime is the mean pause between an answer and a session's next
	// request (exponential): a designer looks at the result first. It also
	// bounds the request rate, and with it the job records the service
	// keeps in memory.
	thinkTime = 15 * time.Millisecond
	// serveChain bounds a session's delta chain before it starts over from
	// its base design.
	serveChain = 6
	// batchGap is the mean gap between batch arrivals, each drawn uniformly
	// within ±20% of it.
	batchGap = time.Second
	// batchSamples is how many batch submissions a run waits for: the p50
	// needs 20, and one read off 20 moved by a fifth between runs.
	batchSamples = 30
	// batchDupShare is the share of batch arrivals submitted twice back to
	// back, so the second coalesces onto the first.
	batchDupShare = 0.25
)

// spanHeader carries the client's span and request ids to the handler
// wrapper, so the server's span nests under the client call.
const spanHeader = "X-Bench-Span"

type ctxKey struct{}

// spanRef is the span a client call runs under.
type spanRef struct{ span, req int64 }

// tagTransport stamps each outgoing request with the span it runs under.
type tagTransport struct{ base http.RoundTripper }

func (t tagTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if ref, ok := req.Context().Value(ctxKey{}).(spanRef); ok && ref.span != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatInt(ref.span, 10)+"/"+strconv.FormatInt(ref.req, 10))
	}
	return t.base.RoundTrip(req)
}

// handlerSpans wraps the service's handler in a span per request.
func (r *run) handlerSpans(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var parent, id int64
		if v := req.Header.Get(spanHeader); v != "" {
			p, q, _ := strings.Cut(v, "/")
			parent, _ = strconv.ParseInt(p, 10, 64)
			id, _ = strconv.ParseInt(q, 10, 64)
		}
		_ = r.tr.do("server.Handler", parent, id, func(int64) error {
			h.ServeHTTP(w, req)
			return nil
		})
	})
}

// arrival is one scheduled batch submission.
type arrival struct {
	due time.Duration // since the start of measurement
	net *autoncs.Network
	dup bool
}

// batchSchedule returns the seeded open-loop batch schedule as a
// generator of successive arrivals: jittered periodic gaps, random
// 96-neuron networks.
func batchSchedule(seed int64) func() arrival {
	rng := subRand(seed, streamBatch, 0)
	at := time.Duration(0)
	i := int64(0)
	return func() arrival {
		at += time.Duration((0.8 + 0.4*rng.Float64()) * float64(batchGap))
		i++
		return arrival{
			due: at,
			net: autoncs.RandomSparseNetwork(96, 0.92, seed*1000+i),
			dup: rng.Float64() < batchDupShare,
		}
	}
}

// served is one request a session has had answered.
type served struct {
	req client.CompileRequest
	net *autoncs.Network
	key string
}

// session is one closed-loop interactive editing session. It edits its
// first design in short chains of deltas and re-opens its designs in
// between. Re-opening only the designs, never a delta, keeps every key it
// repeats, and the base artifact each delta resolves, among the service
// cache's recent entries (a cached delta whose base artifact the cache
// evicted is refused), and keeps hot requests one population: a repeated
// delta would first decode its base's artifact.
type session struct {
	id    int
	rng   *rand.Rand
	bases []served
	tip   served // the design the next delta edits
	steps int    // deltas since the chain started from bases[0]
}

// sessionDesign is design b of session i: the paper's Hopfield testbench
// family scaled to 200 neurons (10 patterns), so the service's per-request
// payloads, and the job records holding them, stay near 100 KB.
func sessionDesign(seed int64, i, b int) *autoncs.Network {
	return autoncs.BuildTestbench(autoncs.Testbench{M: 10, N: 200, Sparsity: 0.94}, drawSeed(seed, i*sessionBases+b))
}

// sessionOp is one interactive request's outcome.
type sessionOp struct {
	what    string
	err     error
	ms      float64 // client-observed latency
	delta   bool
	payload int
	job     *client.JobStatus
}

// serveState is what the sessions share.
type serveState struct {
	r                                          *run
	cl                                         *client.Client
	hc                                         *http.Client
	url                                        string
	cfg                                        autoncs.Config
	mu                                         sync.Mutex
	first                                      map[string][sha256.Size]byte // digest of the first answer per key
	nextReq                                    int64
	specSecs, artDecode, artRestore, artEncode []float64
	artBytes                                   []float64
}

func (s *serveState) reqID() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextReq++
	return s.nextReq
}

func (s *serveState) observe(list *[]float64, v float64) {
	s.mu.Lock()
	*list = append(*list, v)
	s.mu.Unlock()
}

// submit sends one interactive request and checks its answer. A new
// request's key is derived client-side with CompileRequest.Spec and must
// match the answer's, and its assignment must cover net. A repeat (key
// already known) must answer byte-identically to the first answer for its
// key, which was checked in full.
func (s *serveState) submit(ctx context.Context, req client.CompileRequest, net *autoncs.Network, key string) (*client.JobStatus, float64, error) {
	tr := s.r.tr
	reqID := s.reqID()
	var st *client.JobStatus
	var ms float64
	err := tr.do("interactive", 0, reqID, func(root int64) error {
		if key == "" {
			var sp *client.Spec
			t := time.Now()
			err := tr.do("client.Spec", root, reqID, func(int64) (err error) {
				sp, err = req.Spec(0)
				return err
			})
			s.observe(&s.specSecs, time.Since(t).Seconds())
			if err != nil {
				return err
			}
			key = sp.KeyHex()
		}
		call := tr.newID()
		t := time.Now()
		var err error
		st, err = s.cl.CompileWait(context.WithValue(ctx, ctxKey{}, spanRef{call, reqID}), req)
		end := time.Now()
		tr.record(call, "client.CompileWait", root, reqID, t, end)
		ms = 1000 * end.Sub(t).Seconds()
		if err != nil {
			return err
		}
		if st.State != client.StateDone {
			return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		if st.Key != key {
			return fmt.Errorf("answer key %s, the client derives %s", st.Key, key)
		}
		return s.checkPayload(st.Key, st.Result, net)
	})
	return st, ms, err
}

// checkPayload checks a result payload: its assignment covers net, and it
// is byte-identical to the first answer for its key.
func (s *serveState) checkPayload(key string, payload []byte, net *autoncs.Network) error {
	sum := sha256.Sum256(payload)
	s.mu.Lock()
	prev, seen := s.first[key]
	s.mu.Unlock()
	if seen {
		if prev != sum {
			return fmt.Errorf("answer for key %s differs from its first answer", key)
		}
		return nil
	}
	var res client.Result
	if err := json.Unmarshal(payload, &res); err != nil {
		return fmt.Errorf("decoding result: %w", err)
	}
	a, err := xbar.ReadJSON(bytes.NewReader(res.Assignment))
	if err != nil {
		return err
	}
	if err := checkCover(net, a, s.cfg.Library); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.first[key]; ok && prev != sum {
		return fmt.Errorf("answer for key %s differs from its first answer", key)
	}
	s.first[key] = sum
	return nil
}

// artifact fetches the resumable artifact of the compile with the given
// key — what an editing client loads to show the layout — decodes and
// restores it, checks the design against net, and re-encodes it, which
// must reproduce the fetched bytes.
func (s *serveState) artifact(ctx context.Context, key string, net *autoncs.Network, parent int64) (*autoncs.Result, error) {
	raw, err := hex.DecodeString(key)
	if err != nil || len(raw) != 32 {
		return nil, fmt.Errorf("bad key %q", key)
	}
	akey := client.ArtifactKey([32]byte(raw))
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/v1/cache/"+hex.EncodeToString(akey[:]), nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("artifact of %s: HTTP %d", key, resp.StatusCode)
	}
	s.observe(&s.artBytes, float64(len(data)))
	var art *autoncs.Artifact
	var res *autoncs.Result
	tr := s.r.tr
	t := time.Now()
	err = tr.do("autoncs.DecodeArtifact", parent, 0, func(int64) (err error) {
		art, err = autoncs.DecodeArtifact(data)
		return err
	})
	s.observe(&s.artDecode, time.Since(t).Seconds())
	if err != nil {
		return nil, err
	}
	t = time.Now()
	err = tr.do("Artifact.Restore", parent, 0, func(int64) (err error) {
		res, err = art.Restore(s.cfg)
		return err
	})
	s.observe(&s.artRestore, time.Since(t).Seconds())
	if err != nil {
		return nil, err
	}
	if err := checkDesign(net, res, s.cfg); err != nil {
		return nil, err
	}
	var again []byte
	t = time.Now()
	err = tr.do("autoncs.EncodeArtifact", parent, 0, func(int64) (err error) {
		again, err = autoncs.EncodeArtifact(res, s.cfg)
		return err
	})
	s.observe(&s.artEncode, time.Since(t).Seconds())
	if err == nil && !bytes.Equal(again, data) {
		err = fmt.Errorf("artifact of %s does not re-encode to its own bytes", key)
	}
	return res, err
}

// step runs one interactive request of a session: it re-opens one of its
// designs, or sends a delta edit of the tip of its current chain.
func (s *serveState) step(ctx context.Context, ss *session) sessionOp {
	if ss.rng.Float64() < hotShare {
		h := ss.bases[ss.rng.Intn(len(ss.bases))]
		st, ms, err := s.submit(ctx, h.req, h.net, h.key)
		op := sessionOp{what: fmt.Sprintf("session %d re-open", ss.id), err: err, ms: ms}
		if err == nil {
			op.payload = len(st.Result)
			if !st.Cached {
				err = fmt.Errorf("repeat of %s was not answered from the cache", h.key)
				op.err = err
			}
		}
		return op
	}
	if ss.steps == serveChain {
		ss.tip, ss.steps = ss.bases[0], 0
	}
	edited := localizedEdit(ss.tip.net, serveEdits, ss.rng)
	req := client.CompileRequest{Net: netText(edited), Base: ss.tip.key}
	st, ms, err := s.submit(ctx, req, edited, "")
	op := sessionOp{what: fmt.Sprintf("session %d delta", ss.id), err: err, ms: ms, delta: true}
	if err != nil {
		return op
	}
	job := *st
	job.Result = nil // keep the timing fields only
	op.payload, op.job = len(st.Result), &job
	if err := s.r.tr.do("artifact", 0, 0, func(id int64) error {
		_, err := s.artifact(ctx, st.Key, edited, id)
		return err
	}); err != nil {
		op.err = err
		return op
	}
	ss.tip = served{req: req, net: edited, key: st.Key}
	ss.steps++
	return op
}

// batchOp is one batch submission.
type batchOp struct {
	due, sent time.Time
	net       *autoncs.Network
	id        string
	err       error
}

// startService starts the compile service with its default options
// behind the handler span wrapper on a loopback listener, and a client
// holding at most conns connections to it. stop shuts both down and
// waits for them.
func startService(r *run, conns int) (s *serveState, stop func(), err error) {
	srv, err := server.New(server.Options{})
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	hs := &http.Server{Handler: r.handlerSpans(srv.Handler())}
	serveDone := make(chan error, 1)
	go func() { serveDone <- hs.Serve(ln) }()
	transport := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	hc := &http.Client{Transport: tagTransport{transport}}
	stop = func() {
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = hs.Shutdown(sctx) // the listener goes either way
		<-serveDone
		transport.CloseIdleConnections()
		_ = srv.Drain(sctx) // every job has finished before this point
	}
	url := "http://" + ln.Addr().String()
	return &serveState{r: r, cl: client.NewWith(url, hc), hc: hc, url: url, cfg: r.cfg,
		first: make(map[string][sha256.Size]byte)}, stop, nil
}

// runServe runs the serve workload.
func runServe(ctx context.Context, r *run) error {
	startup := time.Since(processStart)
	setupStart := time.Now()
	nproc := runtime.NumCPU()
	s, stop, err := startService(r, nproc)
	if err != nil {
		return err
	}
	defer stop()

	// Set-up: the batch schedule, and each session's base designs compiled
	// and their artifacts loaded — the cache warm-up.
	nextArrival := batchSchedule(r.seed)
	sessions := make([]*session, nproc)
	bases := make([][]*autoncs.Result, nproc)
	errs := make([]error, nproc)
	var wg sync.WaitGroup
	for i := range sessions {
		ss := &session{id: i, rng: subRand(r.seed, streamSession, i)}
		for b := 0; b < sessionBases; b++ {
			net := sessionDesign(r.seed, i, b)
			ss.bases = append(ss.bases, served{req: client.CompileRequest{Net: netText(net)}, net: net})
		}
		sessions[i] = ss
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ss := sessions[i]
			for b := range ss.bases {
				st, _, err := s.submit(ctx, ss.bases[b].req, ss.bases[b].net, "")
				var res *autoncs.Result
				if err == nil {
					ss.bases[b].key = st.Key
					res, err = s.artifact(ctx, st.Key, ss.bases[b].net, 0)
				}
				if err != nil {
					errs[i] = err
					return
				}
				bases[i] = append(bases[i], res)
			}
		}(i)
	}
	wg.Wait()
	var quality []*autoncs.Result
	for i, err := range errs {
		if !r.check(fmt.Sprintf("session %d base compiles", i), err) {
			return fmt.Errorf("session %d bases: %w", i, err)
		}
		sessions[i].tip = sessions[i].bases[0]
		for b, res := range bases[i] {
			r.designRow(design{fmt.Sprintf("s%d.b%d", i, b), sessions[i].bases[b].net}, res, 0)
		}
		quality = append(quality, bases[i]...)
	}
	setup := (startup + time.Since(setupStart)).Seconds()

	// Measurement: sessions in closed loops and the batch schedule in an
	// open loop, for the run's time and until the interactive p99 and the
	// batch p50 have their samples.
	start := time.Now()
	deadline := start.Add(r.seconds)
	need := int64(minSamples(99))
	var done, submitted atomic.Int64
	windowClosed := make(chan struct{})
	ops := make([][]sessionOp, nproc)
	for i, ss := range sessions {
		wg.Add(1)
		go func(i int, ss *session) {
			defer wg.Done()
			for time.Now().Before(deadline) || done.Load() < need || submitted.Load() < batchSamples {
				ops[i] = append(ops[i], s.step(ctx, ss))
				done.Add(1)
				time.Sleep(time.Duration(ss.rng.ExpFloat64() * float64(thinkTime)))
			}
		}(i, ss)
	}
	var batch []batchOp
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			a := nextArrival()
			due := start.Add(a.due)
			select {
			case <-windowClosed:
				return
			case <-time.After(time.Until(due)):
			}
			copies := 1
			if a.dup {
				copies = 2
			}
			for k := 0; k < copies; k++ {
				op := batchOp{due: due, sent: time.Now(), net: a.net}
				st, err := s.cl.Compile(ctx, client.CompileRequest{Net: netText(a.net), Priority: client.PriorityBatch})
				if err == nil {
					op.id = st.ID
				}
				op.err = err
				batch = append(batch, op)
				submitted.Add(1)
			}
		}
	}()
	wg.Wait()
	close(windowClosed)
	bg.Wait()
	elapsed := time.Since(start)

	// Batch jobs finish after the window; their latency runs from the due
	// time to the job's FinishedAt.
	var batchS, lateMs []float64
	var jobs []*client.JobStatus
	for _, op := range batch {
		lateMs = append(lateMs, 1000*op.sent.Sub(op.due).Seconds())
		err := op.err
		var st *client.JobStatus
		if err == nil {
			st, err = s.cl.JobWait(ctx, op.id)
		}
		if err == nil && st.State != client.StateDone {
			err = fmt.Errorf("batch job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		var fin time.Time
		if err == nil {
			fin, err = time.Parse(time.RFC3339Nano, st.FinishedAt)
		}
		if err == nil {
			var payload []byte
			if payload, err = s.cl.ResultBytes(ctx, op.id); err == nil {
				err = s.checkPayload(st.Key, payload, op.net)
			}
		}
		if r.check("batch job", err) {
			batchS = append(batchS, fin.Sub(op.due).Seconds())
			jobs = append(jobs, st)
		}
	}
	var lat, hotMs, deltaMs, payloads []float64
	for i := range ops {
		for _, op := range ops[i] {
			if !r.check(op.what, op.err) {
				continue
			}
			lat = append(lat, op.ms)
			payloads = append(payloads, float64(op.payload))
			if op.delta {
				deltaMs = append(deltaMs, op.ms)
				jobs = append(jobs, op.job)
			} else {
				hotMs = append(hotMs, op.ms)
			}
		}
	}
	m, err := s.cl.Metrics(ctx)
	if err != nil {
		return err
	}

	r.setCommon(setup, 1)
	r.linef("load sessions=%d (closed loop, mean think time %v) connections<=%d batch=%d submissions (open loop, gap %v ±20%%, %d%% duplicated) window=%.2fs",
		nproc, thinkTime, nproc, len(batch), batchGap, int(100*batchDupShare), elapsed.Seconds())
	r.named("generator_late_ms_max", maxf(lateMs), "ms", len(lateMs))
	r.named("interactive_requests", float64(len(lat)), "count", len(lat))
	hot := mean(hotMs)
	r.named("hot_ms_mean", hot, "ms", len(hotMs))
	r.named("delta_ms_mean", mean(deltaMs), "ms", len(deltaMs))
	if _, err := r.pct("interactive_ms_p50", lat, 50, "ms"); err != nil {
		return err
	}
	// The gated tail is the p90: the p99 rests on the few deltas that
	// queue behind a batch compile, too few per run to be steady.
	p90, err := r.pct("interactive_ms_p90", lat, 90, "ms")
	if err != nil {
		return err
	}
	if _, err := r.pct("interactive_ms_p99", lat, 99, "ms"); err != nil {
		return err
	}
	b50, err := r.pct("batch_s_p50", batchS, 50, "s")
	if err != nil {
		return err
	}
	// The gated typical latency is the mean of the re-opens, the hot
	// path. Their distribution has two modes, with and without a compile
	// running beside them, and the p50 of all requests sits near where they
	// meet, so it jumps when host speed drifts; the mean moves smoothly.
	if !r.traced {
		r.set("latency_ms", hot, "ms")
		r.set("tail_latency_ms", p90, "ms")
		r.set("cold_compile_s", b50, "s")
	}
	r.setQuality(quality)
	if r.traced {
		return r.tracedServe(s, m, jobs, payloads)
	}
	return nil
}

// tracedServe reports the serve workload's per-layer metrics.
func (r *run) tracedServe(s *serveState, m *client.Metrics, jobs []*client.JobStatus, payloads []float64) error {
	spans := r.tr.snapshot()
	self := selfByName(spans)
	byID := make(map[int64]span, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	var call, handler []float64
	wall := 0.0
	for _, sp := range spans {
		switch sp.Name {
		case "client.CompileWait":
			call = append(call, 1000*sp.dur())
		case "server.Handler":
			if p, ok := byID[sp.Parent]; ok && p.Name == "client.CompileWait" {
				handler = append(handler, 1000*sp.dur())
			}
		case "interactive", "artifact":
			wall += sp.dur()
		}
	}
	var queue, runMs []float64
	for _, j := range jobs {
		sub, e1 := time.Parse(time.RFC3339Nano, j.SubmittedAt)
		st, e2 := time.Parse(time.RFC3339Nano, j.StartedAt)
		fin, e3 := time.Parse(time.RFC3339Nano, j.FinishedAt)
		if err := errors.Join(e1, e2, e3); err != nil || j.Cached || j.Coalesced {
			continue
		}
		queue = append(queue, 1000*st.Sub(sub).Seconds())
		runMs = append(runMs, 1000*fin.Sub(st).Seconds())
	}
	for _, p := range []struct {
		name string
		xs   []float64
		p    int
	}{
		{"client.roundtrip_ms_p50", call, 50},
		{"server.handler_ms_p50", handler, 50},
		{"server.queue_ms_p50", queue, 50},
		{"server.queue_ms_p90", queue, 90},
		{"server.run_ms_p50", runMs, 50},
	} {
		v, err := r.pct(p.name, p.xs, p.p, "ms")
		if err != nil {
			return err
		}
		r.layer(p.name, v)
	}
	r.layer("client.spec_ms", 1000*mean(s.specSecs))
	r.layer("client.payload_bytes", mean(payloads))
	if total := m.CacheHits + m.CacheMisses; total > 0 {
		r.layer("cache.hit_ratio", float64(m.CacheHits)/float64(total))
	}
	r.layer("cache.entries", float64(m.CacheEntries))
	r.layer("artifact.encode_ms", 1000*mean(s.artEncode))
	r.layer("artifact.decode_ms", 1000*mean(s.artDecode))
	r.layer("artifact.restore_ms", 1000*mean(s.artRestore))
	r.layer("artifact.bytes", mean(s.artBytes))
	r.layer("server.cache_hits", float64(m.JobsCacheHits))
	r.layer("server.coalesced", float64(m.JobsCoalesced))
	r.layer("server.rejected", float64(m.JobsRejected))
	r.layer("server.delta_compiles", float64(m.DeltaCompiles))
	r.layer("server.delta_fallbacks", float64(m.DeltaFallbacks))
	layers := 0.0
	for _, n := range []string{"client.Spec", "client.CompileWait", "server.Handler",
		"autoncs.DecodeArtifact", "Artifact.Restore", "autoncs.EncodeArtifact"} {
		layers += self[n]
	}
	r.layer("other_s", wall-layers)
	r.layer("trace.overhead_s", float64(len(spans))*spanCost())
	return nil
}

// spanCost measures what recording one span costs, for the serve
// workload's tracing overhead (its load is concurrent, so there is no
// untraced replay to subtract).
func spanCost() float64 {
	tr := newTracer(true)
	const n = 10000
	t := time.Now()
	for i := 0; i < n; i++ {
		_ = tr.do("x", 0, 0, func(int64) error { return nil })
	}
	return time.Since(t).Seconds() / n
}

func maxf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
