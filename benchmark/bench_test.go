package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	autoncs "repro"
	"repro/client"
	"repro/internal/xbar"
)

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: percentile must sort
		}
		return xs
	}
	for _, c := range []struct {
		n, p int
		want float64
		ok   bool
	}{
		{20, 50, 10, true},
		{19, 50, 0, false}, // rank 10, 9 beyond
		{100, 90, 90, true},
		{99, 90, 0, false},
		{1000, 99, 990, true},
		{999, 99, 0, false},
		{100, 99, 0, false},
	} {
		got, err := percentile(seq(c.n), c.p)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("p%d of %d: got %v, %v; want %v, ok=%v", c.p, c.n, got, err, c.want, c.ok)
		}
	}
	for p, want := range map[int]int{50: 20, 90: 100, 99: 1000} {
		if got := minSamples(p); got != want {
			t.Errorf("minSamples(%d) = %d, want %d", p, got, want)
		}
	}
}

func TestCoverChecker(t *testing.T) {
	net := autoncs.RandomSparseNetwork(80, 0.9, 3)
	lib := autoncs.DefaultLibrary()
	fresh := func() *autoncs.Assignment { return xbar.FullCro(net, lib) }
	if err := checkCover(net, fresh(), lib); err != nil {
		t.Fatalf("exact cover rejected: %v", err)
	}

	dropped := fresh()
	cb := &dropped.Crossbars[0]
	cb.Conns = cb.Conns[1:]
	if err := checkCover(net, dropped, lib); err == nil || !strings.Contains(err.Error(), "dropped") {
		t.Errorf("dropped connection: got %v", err)
	}

	dup := fresh()
	dup.Synapses = append(dup.Synapses, dup.Crossbars[0].Conns[0])
	if err := checkCover(net, dup, lib); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicated connection: got %v", err)
	}

	extra := fresh()
	for i := 0; i < net.N(); i++ {
		if j := (i + 1) % net.N(); !net.Has(i, j) {
			extra.Synapses = append(extra.Synapses, autoncs.Edge{From: i, To: j})
			break
		}
	}
	if err := checkCover(net, extra, lib); err == nil || !strings.Contains(err.Error(), "not in the network") {
		t.Errorf("foreign connection: got %v", err)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 3},
		{ID: 3, Parent: 1, Name: "a", Start: 2, End: 5}, // overlaps span 2
		{ID: 4, Parent: 1, Name: "b", Start: 8, End: 9},
		{ID: 5, Parent: 2, Name: "c", Start: 1.5, End: 2},
		{ID: 6, Parent: 4, Name: "c", Start: 8.5, End: 11}, // runs past its parent
	}
	self := selfTimes(spans)
	want := map[int64]float64{1: 10 - 4 - 1, 2: 2 - 0.5, 3: 3, 4: 1 - 0.5, 5: 0.5, 6: 2.5}
	for id, w := range want {
		if math.Abs(self[id]-w) > 1e-12 {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	byName := selfByName(spans)
	if math.Abs(byName["a"]-4.5) > 1e-12 || math.Abs(byName["c"]-3) > 1e-12 {
		t.Errorf("self by name = %v", byName)
	}
}

func edgesOf(n *autoncs.Network) []autoncs.Edge { return n.Edges() }

func TestSeededInputs(t *testing.T) {
	a, b, c := genDraws(1, 2), genDraws(1, 2), genDraws(2, 2)
	for k := range a {
		for i := range a[k] {
			if !reflect.DeepEqual(edgesOf(a[k][i].net), edgesOf(b[k][i].net)) {
				t.Errorf("draw %d design %s differs for one seed", k, a[k][i].name)
			}
			// Draw 0 is the seed's own; reference draws are shared.
			if same := reflect.DeepEqual(edgesOf(a[k][i].net), edgesOf(c[k][i].net)); same != (k > 0) {
				t.Errorf("draw %d design %s identical across seeds: %v", k, a[k][i].name, same)
			}
		}
	}
	if reflect.DeepEqual(edgesOf(a[0][0].net), edgesOf(a[1][0].net)) {
		t.Errorf("draws 0 and 1 of one seed are identical")
	}

	chain := func(seed int64) [][]autoncs.Edge {
		rng := subRand(seed, streamEditChain, 0)
		cur := a[0][1].net
		var out [][]autoncs.Edge
		for k := 0; k < 3; k++ {
			next := localizedEdit(cur, 100, rng)
			es, err := autoncs.DiffNetworks(cur, next)
			if err != nil || es.Edits() == 0 || es.Edits() > 100 {
				t.Fatalf("edit %d: %d edits, %v", k, es.Edits(), err)
			}
			out = append(out, edgesOf(next))
			cur = next
		}
		return out
	}
	if !reflect.DeepEqual(chain(1), chain(1)) {
		t.Errorf("edit chain differs for one seed")
	}
	if reflect.DeepEqual(chain(1), chain(2)) {
		t.Errorf("edit chain identical across seeds")
	}

	sched := func(seed int64) []arrival {
		next := batchSchedule(seed)
		out := make([]arrival, 5)
		for i := range out {
			out[i] = next()
		}
		return out
	}
	s1, s2, s3 := sched(1), sched(1), sched(2)
	for i := range s1 {
		if s1[i].due != s2[i].due || s1[i].dup != s2[i].dup || !reflect.DeepEqual(edgesOf(s1[i].net), edgesOf(s2[i].net)) {
			t.Errorf("batch arrival %d differs for one seed", i)
		}
	}
	if s1[0].due == s3[0].due && reflect.DeepEqual(edgesOf(s1[0].net), edgesOf(s3[0].net)) {
		t.Errorf("batch schedule identical across seeds")
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the metrics
// the runs report.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var e2e, layers []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range b.PerLayer {
		layers = append(layers, m.Name)
		if m.Unit != unitOf(m.Name) {
			t.Errorf("per-layer %s has unit %s, runs report %s", m.Name, m.Unit, unitOf(m.Name))
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end = %v, runs report %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer = %v, runs report %v", layers, perLayer)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
}

// The sensitivity self-test injects a known delay into the benchmark's own
// span wrapper around the layer call each workload claims to stress, and
// requires that layer's self time and the workload's end-to-end latency to
// rise by about that delay.

const injected = 150 * time.Millisecond

// near reports whether a measured rise is about the injected delay.
func near(rise time.Duration) bool { return rise > injected*7/10 && rise < injected*13/10 }

func TestSensitivityFullCroRoute(t *testing.T) {
	net := autoncs.RandomSparseNetwork(160, 0.9, 5)
	measure := func(delay time.Duration) (wall, route time.Duration) {
		wall, route = time.Hour, time.Hour
		for i := 0; i < 3; i++ { // best of three, against scheduling noise
			r := newRun("fullcro", 1, time.Second, true, t.TempDir())
			r.tr.delay = map[string]time.Duration{"route.RouteCtx": delay}
			t0 := time.Now()
			res, err := compileLayered(context.Background(), r.tr, 0, net, r.cfg, true, &statsSum{})
			w := time.Since(t0)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkDesign(net, res, r.cfg); err != nil {
				t.Fatal(err)
			}
			rs := time.Duration(selfByName(r.tr.snapshot())["route.RouteCtx"] * float64(time.Second))
			wall, route = min(wall, w), min(route, rs)
		}
		return wall, route
	}
	w0, r0 := measure(0)
	w1, r1 := measure(injected)
	if !near(w1-w0) || !near(r1-r0) {
		t.Errorf("compile wall rose %v and route self time %v for an injected %v", w1-w0, r1-r0, injected)
	}
}

func TestSensitivityEditDelta(t *testing.T) {
	net := autoncs.RandomSparseNetwork(160, 0.9, 5)
	cfg := autoncs.DefaultConfig()
	base, err := autoncs.CompileCtx(context.Background(), net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(delay time.Duration) (p50, self time.Duration) {
		r := newRun("edit", 1, time.Second, true, t.TempDir())
		r.tr.delay = map[string]time.Duration{"autoncs.CompileDeltaCtx": delay}
		var lat []float64
		if _, _, err := r.editChain(context.Background(), 0, net, base, 4, &lat, &deltaSum{}); err != nil {
			t.Fatal(err)
		}
		v, err := percentile(lat, 50)
		if err != nil {
			t.Fatal(err)
		}
		return time.Duration(v * float64(time.Millisecond)),
			time.Duration(selfByName(r.tr.snapshot())["autoncs.CompileDeltaCtx"] / float64(len(lat)) * float64(time.Second))
	}
	p0, s0 := measure(0)
	p1, s1 := measure(injected)
	if !near(p1-p0) || !near(s1-s0) {
		t.Errorf("edit p50 rose %v and CompileDeltaCtx self time per call %v for an injected %v", p1-p0, s1-s0, injected)
	}
}

func TestSensitivityServeHandler(t *testing.T) {
	net := autoncs.RandomSparseNetwork(100, 0.9, 5)
	req := client.CompileRequest{Net: netText(net)}
	measure := func(delay time.Duration) (p50, handler time.Duration) {
		r := newRun("serve", 1, time.Second, true, t.TempDir())
		r.tr.delay = map[string]time.Duration{"server.Handler": delay}
		s, stop, err := startService(r, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		st, _, err := s.submit(context.Background(), req, net, "")
		if err != nil {
			t.Fatal(err)
		}
		var lat []float64
		for i := 0; i < 20; i++ {
			_, ms, err := s.submit(context.Background(), req, net, st.Key)
			if err != nil {
				t.Fatal(err)
			}
			lat = append(lat, ms)
		}
		v, err := percentile(lat, 50)
		if err != nil {
			t.Fatal(err)
		}
		var hs []float64
		self := selfTimes(r.tr.snapshot())
		for _, sp := range r.tr.snapshot() {
			if sp.Name == "server.Handler" {
				hs = append(hs, self[sp.ID])
			}
		}
		return time.Duration(v * float64(time.Millisecond)), time.Duration(median(hs) * float64(time.Second))
	}
	p0, h0 := measure(0)
	p1, h1 := measure(injected)
	if !near(p1-p0) || !near(h1-h0) {
		t.Errorf("interactive p50 rose %v and handler self time %v for an injected %v", p1-p0, h1-h0, injected)
	}
}
