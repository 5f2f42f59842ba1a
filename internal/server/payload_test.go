package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro"
	"repro/client"
	"repro/internal/cache"
)

// rawCompileWait posts req to /v1/compile?wait=1 and returns the raw
// response body.
func rawCompileWait(t *testing.T, url string, req client.CompileRequest) []byte {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/compile?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/compile?wait=1: %d %s", resp.StatusCode, raw)
	}
	return raw
}

// rawGet fetches url and returns the body of a 200 answer.
func rawGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, raw)
	}
	return raw
}

// TestWaitResultVerbatim: a ?wait=1 answer is compact JSON — the exact
// bytes encoding/json writes for the status — and its result is the stored
// payload verbatim, byte-identical to GET /v1/results/{id} and GET
// /v1/cache/{key}, for a fresh compile and for its cache hit.
func TestWaitResultVerbatim(t *testing.T) {
	s, err := New(Options{Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); s.Close() })

	for i, want := range []bool{false, true} {
		raw := rawCompileWait(t, hs.URL, smallReq(1))
		var st client.JobStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		if st.State != client.StateDone || st.Cached != want {
			t.Fatalf("request %d: state %s cached %v, want done/%v", i, st.State, st.Cached, want)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, raw); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(compact.Bytes(), bytes.TrimSuffix(raw, []byte("\n"))) {
			t.Fatalf("request %d: the ?wait=1 body is not compact JSON", i)
		}
		enc, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(enc, '\n'), raw) {
			t.Fatalf("request %d: the body differs from what encoding/json writes for its status", i)
		}
		result := rawGet(t, hs.URL+"/v1/results/"+st.ID)
		if !bytes.Equal(st.Result, result) {
			t.Fatalf("request %d: ?wait=1 result (%d bytes) differs from GET /v1/results/{id} (%d bytes)", i, len(st.Result), len(result))
		}
		if stored := rawGet(t, hs.URL+"/v1/cache/"+st.Key); !bytes.Equal(stored, result) {
			t.Fatalf("request %d: GET /v1/cache/{key} differs from the job's result", i)
		}
	}
}

// reaches reports whether any value of a type in banned is reachable from
// v through pointers, interfaces, structs, slices, arrays and maps.
func reaches(v reflect.Value, banned map[reflect.Type]bool, seen map[uintptr]bool) reflect.Type {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return nil
		}
		if banned[v.Type()] {
			return v.Type()
		}
		if seen[v.Pointer()] {
			return nil
		}
		seen[v.Pointer()] = true
		return reaches(v.Elem(), banned, seen)
	case reflect.Interface:
		if v.IsNil() {
			return nil
		}
		return reaches(v.Elem(), banned, seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if t := reaches(v.Field(i), banned, seen); t != nil {
				return t
			}
		}
	case reflect.Slice, reflect.Array:
		switch v.Type().Elem().Kind() {
		case reflect.Pointer, reflect.Interface, reflect.Struct, reflect.Slice, reflect.Array, reflect.Map:
			for i := 0; i < v.Len(); i++ {
				if t := reaches(v.Index(i), banned, seen); t != nil {
					return t
				}
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if t := reaches(it.Key(), banned, seen); t != nil {
				return t
			}
			if t := reaches(it.Value(), banned, seen); t != nil {
				return t
			}
		}
	}
	return nil
}

// TestFinishedJobHoldsNoInputs: a finished job record references no
// network, spec, artifact or flight — whether it compiled, hit the cache,
// ran as a delta, coalesced onto another compile, or was detached while
// its compile ran on — and a done record's payload is the cache's own
// slice, not a second copy.
func TestFinishedJobHoldsNoInputs(t *testing.T) {
	s, c := newTestServer(t, Options{Slots: 1, QueueDepth: 4})
	ctx := context.Background()
	banned := map[reflect.Type]bool{
		reflect.TypeOf((*autoncs.Network)(nil)):  true,
		reflect.TypeOf((*autoncs.Artifact)(nil)): true,
		reflect.TypeOf((*autoncs.Result)(nil)):   true,
		reflect.TypeOf((*compileSpec)(nil)):      true,
		reflect.TypeOf((*flight)(nil)):           true,
	}
	check := func(what, id string) {
		t.Helper()
		j, ok := s.jobByID(id)
		if !ok {
			t.Fatalf("%s: no record %s", what, id)
		}
		if !j.terminal() {
			t.Fatalf("%s: record %s is not finished", what, id)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		j.mu.Lock()
		defer j.mu.Unlock()
		if typ := reaches(reflect.ValueOf(j).Elem(), banned, map[uintptr]bool{}); typ != nil {
			t.Errorf("%s: finished record %s still references a %v", what, id, typ)
		}
		if j.state != client.StateDone {
			return
		}
		stored, hit, _ := s.cache.GetDetail(j.key, nil)
		if !hit || len(j.result) == 0 || &stored[0] != &j.result[0] {
			t.Errorf("%s: record %s holds its own copy of the payload, not the cache's", what, id)
		}
	}

	compiled, err := c.CompileWait(ctx, smallReq(1))
	if err != nil {
		t.Fatal(err)
	}
	check("compiled", compiled.ID)
	hit, err := c.CompileWait(ctx, smallReq(1))
	if err != nil || !hit.Cached {
		t.Fatalf("cache hit: %+v, %v", hit, err)
	}
	check("cache hit", hit.ID)
	delta, err := c.CompileWait(ctx, client.CompileRequest{Net: editedNetText(t), Seed: 1, Base: compiled.Key})
	if err != nil || delta.BaseKey != compiled.Key {
		t.Fatalf("delta: %+v, %v", delta, err)
	}
	check("delta", delta.ID)

	// A leader, a follower that stays, and one that detaches mid-compile.
	b := installBlocking(s)
	leader, err := c.Compile(ctx, smallReq(2))
	if err != nil {
		t.Fatal(err)
	}
	<-b.started
	follower, err := c.Compile(ctx, smallReq(2))
	if err != nil || !follower.Coalesced {
		t.Fatalf("follower: %+v, %v", follower, err)
	}
	detached, err := c.Compile(ctx, smallReq(2))
	if err != nil || !detached.Coalesced {
		t.Fatalf("detached follower: %+v, %v", detached, err)
	}
	if _, err := c.Cancel(ctx, detached.ID); err != nil {
		t.Fatal(err)
	}
	check("detached", detached.ID) // while its compile still runs
	b.release <- struct{}{}
	for _, id := range []string{leader.ID, follower.ID} {
		st, err := c.Wait(ctx, id, 5*time.Millisecond)
		if err != nil || st.State != client.StateDone {
			t.Fatalf("%s: %+v, %v", id, st, err)
		}
	}
	check("leader", leader.ID)
	check("coalesced follower", follower.ID)
}

// TestDiskBadResultIsAMiss: a disk-cache file that is not JSON is a miss —
// the request compiles instead of answering 200 with a body the client
// cannot decode — and the compile's payload replaces the bad file.
func TestDiskBadResultIsAMiss(t *testing.T) {
	dir := t.TempDir()
	store, err := cache.New(cache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s, c := newTestServer(t, Options{Slots: 1, Cache: store})
	ctx := context.Background()
	sp, err := smallReq(1).Spec(0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, cache.Key(sp.Key).Hex())
	if err := os.WriteFile(path, []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		st, err := c.CompileWait(ctx, smallReq(1))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if st.State != client.StateDone || st.Cached != (i == 1) || !json.Valid(st.Result) {
			t.Fatalf("request %d: state %s cached %v valid %v, want a compile, then its cache hit",
				i, st.State, st.Cached, json.Valid(st.Result))
		}
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if stored, _, _ := s.cache.GetDetail(cache.Key(sp.Key), nil); !bytes.Equal(onDisk, stored) || !json.Valid(onDisk) {
		t.Fatal("the compile did not replace the bad disk file")
	}
}

// encodeResultTwoStep is encodeResult as it was before the assignment had
// a compact encoder: WriteJSON indents the assignment, then json.Marshal
// compacts that RawMessage again. It is the reference the payload bytes
// must keep.
func encodeResultTwoStep(sp *compileSpec, res *autoncs.Result) ([]byte, error) {
	var asg bytes.Buffer
	if err := res.Assignment.WriteJSON(&asg); err != nil {
		return nil, fmt.Errorf("encoding assignment: %w", err)
	}
	hist := map[string]int{}
	for size, count := range res.Assignment.SizeHistogram() {
		hist[strconv.Itoa(size)] = count
	}
	out := client.Result{
		Key:            sp.key.Hex(),
		Neurons:        sp.net.N(),
		Connections:    res.Assignment.Total,
		Crossbars:      len(res.Assignment.Crossbars),
		Synapses:       len(res.Assignment.Synapses),
		OutlierRatio:   res.Assignment.OutlierRatio(),
		AvgUtilization: res.Assignment.AvgUtilization(),
		AvgPreference:  res.Assignment.AvgPreference(),
		ISCIterations:  len(res.Trace),
		SizeHistogram:  hist,
		Assignment:     json.RawMessage(asg.Bytes()),
	}
	if res.Report != nil {
		out.Report = &client.Report{
			Wirelength: res.Report.Wirelength,
			Area:       res.Report.Area,
			AvgDelay:   res.Report.AvgDelay,
			MaxDelay:   res.Report.MaxDelay,
			Cost:       res.Report.Cost,
			Wires:      res.Report.Wires,
		}
	}
	return json.Marshal(out)
}

// TestEncodeResultMatchesTwoStep: encoding the assignment compact once
// yields the payload bytes the two-step reference did, on a one-crossbar
// design, a synapse-only design and the serve workload's 200-neuron
// design.
func TestEncodeResultMatchesTwoStep(t *testing.T) {
	for _, tc := range []struct {
		name      string
		net       *autoncs.Network
		crossbars int // -1: any number
	}{
		{"one crossbar", autoncs.RandomSparseNetwork(30, 0.9, 3), 1},
		{"synapses only", autoncs.RandomSparseNetwork(12, 0.9, 3), 0},
		{"n200", autoncs.BuildTestbench(autoncs.Testbench{M: 10, N: 200, Sparsity: 0.94}, 7), -1},
	} {
		cfg := autoncs.DefaultConfig()
		res, err := autoncs.Compile(tc.net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(res.Assignment.Crossbars); tc.crossbars >= 0 && n != tc.crossbars {
			t.Fatalf("%s: design has %d crossbars, want %d", tc.name, n, tc.crossbars)
		}
		key, err := autoncs.CanonicalHash(tc.net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sp := &compileSpec{net: tc.net, cfg: cfg, key: cache.Key(key)}
		got, err := encodeResult(sp, res)
		if err != nil {
			t.Fatal(err)
		}
		want, err := encodeResultTwoStep(sp, res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: payload differs from the two-step encoding\n got %s\nwant %s", tc.name, got, want)
		}
	}
}
