package xbar

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/graph"
)

// The JSON schema is the natural structure of an Assignment; edges are
// [from, to] pairs to keep files compact.

type assignmentJSON struct {
	Version   int            `json:"version"`
	N         int            `json:"neurons"`
	Total     int            `json:"connections"`
	Crossbars []crossbarJSON `json:"crossbars"`
	Synapses  [][2]int       `json:"synapses"`
}

type crossbarJSON struct {
	Size    int      `json:"size"`
	Inputs  []int    `json:"inputs"`
	Outputs []int    `json:"outputs"`
	Conns   [][2]int `json:"conns"`
}

const jsonVersion = 1

// CompactJSON returns the assignment's JSON document with no insignificant
// whitespace: the form a result payload embeds. WriteJSON writes the same
// document indented.
func (a *Assignment) CompactJSON() ([]byte, error) {
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
	return json.Marshal(out)
}

// WriteJSON serializes the assignment as a file holds it: CompactJSON's
// document indented one space per level, ending in a newline.
func (a *Assignment) WriteJSON(w io.Writer) error {
	data, err := a.CompactJSON()
	if err != nil {
		return err
	}
	var b bytes.Buffer
	if err := json.Indent(&b, append(data, '\n'), "", " "); err != nil {
		return err
	}
	_, err = w.Write(b.Bytes())
	return err
}

// ReadJSON parses an assignment previously written by WriteJSON.
func ReadJSON(r io.Reader) (*Assignment, error) {
	var in assignmentJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("xbar: %w", err)
	}
	if in.Version != jsonVersion {
		return nil, fmt.Errorf("xbar: unsupported assignment version %d", in.Version)
	}
	if in.N < 0 || in.Total < 0 {
		return nil, fmt.Errorf("xbar: negative sizes in assignment")
	}
	a := &Assignment{N: in.N, Total: in.Total, Synapses: pairsToEdges(in.Synapses)}
	for _, cj := range in.Crossbars {
		a.Crossbars = append(a.Crossbars, Crossbar{
			Size:    cj.Size,
			Inputs:  cj.Inputs,
			Outputs: cj.Outputs,
			Conns:   pairsToEdges(cj.Conns),
		})
	}
	return a, nil
}

// SaveJSON writes the assignment to a file.
func (a *Assignment) SaveJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("xbar: %w", err)
	}
	defer f.Close()
	return a.WriteJSON(f)
}

// LoadJSON reads an assignment from a file.
func LoadJSON(path string) (*Assignment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("xbar: %w", err)
	}
	defer f.Close()
	return ReadJSON(f)
}

func edgesToPairs(es []graph.Edge) [][2]int {
	out := make([][2]int, len(es))
	for i, e := range es {
		out[i] = [2]int{e.From, e.To}
	}
	return out
}

func pairsToEdges(ps [][2]int) []graph.Edge {
	out := make([]graph.Edge, len(ps))
	for i, p := range ps {
		out[i] = graph.Edge{From: p[0], To: p[1]}
	}
	return out
}
