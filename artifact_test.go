package autoncs

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/route"
)

// tinyArtifact compiles an n-neuron network through the full flow and
// returns its encoded artifact: at n = 30 the design is one crossbar, at
// n = 12 discrete synapses only.
func tinyArtifact(tb testing.TB, n int) []byte {
	tb.Helper()
	cfg := DefaultConfig()
	res, err := Compile(RandomSparseNetwork(n, 0.9, 3), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	data, err := EncodeArtifact(res, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// serveDesign is the serve benchmark workload's session design at seed 7:
// the paper's Hopfield family scaled to 200 neurons and 10 patterns.
func serveDesign() *Network {
	return BuildTestbench(Testbench{M: 10, N: 200, Sparsity: 0.94}, 7)
}

// editArtifact re-encodes an artifact with its envelope changed by edit.
func editArtifact(tb testing.TB, data []byte, edit func(*artifactJSON)) []byte {
	tb.Helper()
	var art artifactJSON
	if err := json.Unmarshal(data, &art); err != nil {
		tb.Fatal(err)
	}
	edit(&art)
	out, err := json.Marshal(art)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// withOversizedBox rewrites an encoded artifact's placement box so that,
// at the default θ, it spans a 2^31 × 2^31 routing grid.
func withOversizedBox(tb testing.TB, data []byte) []byte {
	tb.Helper()
	return editArtifact(tb, data, func(art *artifactJSON) {
		pl, err := unpackPlacement(art.Placement)
		if err != nil {
			tb.Fatal(err)
		}
		span := DefaultConfig().Route.Theta * (1<<31 - 1)
		pl.MaxX = pl.MinX + span
		pl.MaxY = pl.MinY + span
		art.Placement = packPlacement(pl)
	})
}

// withAssignment re-encodes an artifact with its assignment changed by edit.
func withAssignment(tb testing.TB, data []byte, edit func(*Assignment)) []byte {
	tb.Helper()
	return editArtifact(tb, data, func(art *artifactJSON) {
		a, err := unpackAssignment(art.Assignment)
		if err != nil {
			tb.Fatal(err)
		}
		edit(a)
		art.Assignment = packAssignment(a)
	})
}

// withRouting re-encodes an artifact with its routing section changed by
// edit.
func withRouting(tb testing.TB, data []byte, edit func(*Routing)) []byte {
	tb.Helper()
	return editArtifact(tb, data, func(art *artifactJSON) {
		rt, err := unpackRouting(art.Routing)
		if err != nil {
			tb.Fatal(err)
		}
		edit(rt)
		art.Routing = packRouting(rt)
	})
}

// TestArtifactRestoreRejectsImpossibleRoutes: a routing the router could
// not have produced decodes (DecodeArtifact checks shapes only), but
// Restore refuses it, so it can never seed a warm route. Without the
// check, a zero-edit CompileDeltaCtx returned the teleporting path below
// with a nil error.
func TestArtifactRestoreRejectsImpossibleRoutes(t *testing.T) {
	data := tinyArtifact(t, 30)
	cfg := DefaultConfig()
	art, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	good, err := art.Restore(cfg)
	if err != nil {
		t.Fatalf("unedited artifact rejected: %v", err)
	}
	cols := good.Routing.Cols
	adjacent := func(a, b int) bool {
		dc, dr := a%cols-b%cols, a/cols-b/cols
		return dc*dc+dr*dr == 1
	}
	// w is the first wire routed over at least three bins.
	w := -1
	for i, p := range good.Routing.Paths {
		if len(p) >= 3 {
			w = i
			break
		}
	}
	if w < 0 {
		t.Fatal("no wire of the tiny design spans three bins")
	}
	path := good.Routing.Paths[w]
	for _, tc := range []struct {
		name string
		edit func(*Routing)
	}{
		{"teleport", func(r *Routing) {
			// Swap the middle bin for one adjacent to neither neighbour.
			p := append([]int(nil), path...)
			for b := 0; ; b++ {
				if b != p[1] && !adjacent(b, p[0]) && !adjacent(b, p[2]) {
					p[1] = b
					break
				}
			}
			r.Paths[w] = p
		}},
		{"wrong endpoint", func(r *Routing) {
			// Drop the target bin: every step stays adjacent, but the path
			// stops one bin short.
			r.Paths[w] = append([]int(nil), path[:len(path)-1]...)
		}},
		{"off-grid bin", func(r *Routing) {
			p := append([]int(nil), path...)
			p[1] = -1
			r.Paths[w] = p
		}},
		{"missing path", func(r *Routing) { r.Paths[w] = nil }},
	} {
		bad, err := DecodeArtifact(withRouting(t, data, tc.edit))
		if err != nil {
			t.Fatalf("%s: decode should accept it (Restore rejects it): %v", tc.name, err)
		}
		if _, err := bad.Restore(cfg); err == nil || !strings.Contains(err.Error(), "artifact routing") {
			t.Errorf("%s: Restore err %v, want the routing refusal", tc.name, err)
		}
	}
}

// TestArtifactOversizedGridRejected: an artifact whose placement box would
// size a routing grid past route.MaxGridBins decodes, but Restore refuses
// it with an error instead of allocating (or panicking on) the grid.
func TestArtifactOversizedGridRejected(t *testing.T) {
	art, err := DecodeArtifact(withOversizedBox(t, tinyArtifact(t, 30)))
	if err != nil {
		t.Fatalf("oversized box should decode (Restore rejects it): %v", err)
	}
	_, err = art.Restore(DefaultConfig())
	if err == nil || !strings.Contains(err.Error(), "grid cap") {
		t.Fatalf("Restore of a 2^31×2^31-bin box: err %v, want the grid-cap refusal", err)
	}
}

// FuzzDecodeArtifact: no byte stream makes DecodeArtifact or Restore
// panic, and an artifact that restores yields a congestion map matching its
// grid. Whatever restores (up to 64 neurons, to keep executions fast) must
// also survive a zero-edit CompileDeltaCtx, which commits its paths as
// warm routes: no panic, and any result it returns routes every wire over
// adjacent bins between its pins. Artifacts reach the daemon from its disk
// cache, so they are untrusted input.
func FuzzDecodeArtifact(f *testing.F) {
	crossbar := tinyArtifact(f, 30)
	f.Add(crossbar)
	f.Add(tinyArtifact(f, 12))
	f.Add(withOversizedBox(f, crossbar))
	cfg := DefaultConfig()
	f.Fuzz(func(t *testing.T, data []byte) {
		art, err := DecodeArtifact(data)
		if err != nil {
			return
		}
		res, err := art.Restore(cfg)
		if err != nil {
			return
		}
		if rt := res.Routing; rt != nil && len(rt.Usage) != rt.Cols*rt.Rows {
			t.Fatalf("restored usage map has %d bins for a %d×%d grid", len(rt.Usage), rt.Cols, rt.Rows)
		}
		if res.Assignment.N > 64 {
			return
		}
		delta, _, err := CompileDeltaCtx(context.Background(), res, BaseNetwork(res.Assignment), cfg)
		if err != nil || delta.Routing == nil {
			return
		}
		if err := route.CheckPaths(delta.Netlist, delta.Placement, cfg.Route.Theta, delta.Routing.Paths, delta.Routing.WireLength); err != nil {
			t.Fatalf("zero-edit delta of a restored artifact: %v", err)
		}
	})
}

// BenchmarkArtifactCodec times the artifact codec on the serve workload's
// 200-neuron design: decode (what the daemon pays before admitting each
// delta), Restore, and encode (what it pays before answering one). Each
// reports the artifact's size.
func BenchmarkArtifactCodec(b *testing.B) {
	cfg := DefaultConfig()
	res, err := Compile(serveDesign(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	data, err := EncodeArtifact(res, cfg)
	if err != nil {
		b.Fatal(err)
	}
	art, err := DecodeArtifact(data)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		run  func() error
	}{
		{"decode", func() error { _, err := DecodeArtifact(data); return err }},
		{"restore", func() error { _, err := art.Restore(cfg); return err }},
		{"encode", func() error { _, err := EncodeArtifact(res, cfg); return err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(data)), "artifact_bytes")
		})
	}
}
