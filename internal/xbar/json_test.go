package xbar

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestAssignmentJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cm := graph.RandomSparse(80, 0.92, rng)
	a := FullCro(cm, DefaultLibrary())
	var b strings.Builder
	if err := a.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(cm); err != nil {
		t.Fatalf("round-tripped assignment invalid: %v", err)
	}
	if back.N != a.N || back.Total != a.Total ||
		len(back.Crossbars) != len(a.Crossbars) || len(back.Synapses) != len(a.Synapses) {
		t.Fatal("round trip changed shape")
	}
	if back.MappedConnections() != a.MappedConnections() {
		t.Fatal("round trip changed connection count")
	}
}

func TestAssignmentJSONErrors(t *testing.T) {
	cases := map[string]string{
		"garbage":       "{nope",
		"wrong version": `{"version": 9, "neurons": 2, "connections": 0, "crossbars": null, "synapses": null}`,
		"unknown field": `{"version": 1, "neurons": 2, "connections": 0, "crossbars": null, "synapses": null, "extra": 1}`,
		"negative":      `{"version": 1, "neurons": -2, "connections": 0, "crossbars": null, "synapses": null}`,
	}
	for name, in := range cases {
		if _, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestAssignmentJSONFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.json")
	rng := rand.New(rand.NewSource(2))
	cm := graph.RandomSparse(50, 0.9, rng)
	a := FullCro(cm, DefaultLibrary())
	if err := a.SaveJSON(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(cm); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadJSON(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// writeJSONReference is WriteJSON as it was before CompactJSON existed:
// one json.Encoder pass with SetIndent. It is the reference for the file
// format.
func writeJSONReference(a *Assignment, w io.Writer) error {
	out := assignmentJSON{Version: jsonVersion, N: a.N, Total: a.Total}
	for _, cb := range a.Crossbars {
		cj := crossbarJSON{
			Size:    cb.Size,
			Inputs:  cb.Inputs,
			Outputs: cb.Outputs,
			Conns:   edgesToPairs(cb.Conns),
		}
		out.Crossbars = append(out.Crossbars, cj)
	}
	out.Synapses = edgesToPairs(a.Synapses)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// TestAssignmentJSONMatchesReference: WriteJSON writes the reference's
// bytes, so saved files do not change, and CompactJSON is the same
// document with its whitespace removed.
func TestAssignmentJSONMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for name, a := range map[string]*Assignment{
		"empty":         {N: 3},
		"synapses only": {N: 4, Total: 2, Synapses: []graph.Edge{{From: 0, To: 1}, {From: 2, To: 3}}},
		"nil sides":     {N: 2, Crossbars: []Crossbar{{Size: 4}}},
		"fullcro":       FullCro(graph.RandomSparse(80, 0.92, rng), DefaultLibrary()),
	} {
		var ref, got bytes.Buffer
		if err := writeJSONReference(a, &ref); err != nil {
			t.Fatal(err)
		}
		if err := a.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), ref.Bytes()) {
			t.Errorf("%s: WriteJSON\n%s\nreference\n%s", name, got.Bytes(), ref.Bytes())
		}
		compact, err := a.CompactJSON()
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.Compact(&want, ref.Bytes()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(compact, want.Bytes()) {
			t.Errorf("%s: CompactJSON %s, want %s", name, compact, want.Bytes())
		}
	}
}
