package autoncs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/xbar"
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

// withOversizedBox rewrites an encoded artifact's placement box so that,
// at the default θ, it spans a 2^31 × 2^31 routing grid.
func withOversizedBox(tb testing.TB, data []byte) []byte {
	tb.Helper()
	var art artifactJSON
	if err := json.Unmarshal(data, &art); err != nil {
		tb.Fatal(err)
	}
	span := DefaultConfig().Route.Theta * (1<<31 - 1)
	art.Placement.MaxX = art.Placement.MinX + span
	art.Placement.MaxY = art.Placement.MinY + span
	out, err := json.Marshal(art)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// withAssignment re-encodes an artifact with its assignment changed by edit.
func withAssignment(tb testing.TB, data []byte, edit func(*Assignment)) []byte {
	tb.Helper()
	var art artifactJSON
	if err := json.Unmarshal(data, &art); err != nil {
		tb.Fatal(err)
	}
	a, err := xbar.ReadJSON(bytes.NewReader(art.Assignment))
	if err != nil {
		tb.Fatal(err)
	}
	edit(a)
	var b bytes.Buffer
	if err := a.WriteJSON(&b); err != nil {
		tb.Fatal(err)
	}
	art.Assignment = b.Bytes()
	out, err := json.Marshal(art)
	if err != nil {
		tb.Fatal(err)
	}
	return out
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
// grid. Artifacts reach the daemon from its disk cache and from fleet
// peers, so both are untrusted input.
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
	})
}
