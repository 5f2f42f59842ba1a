package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Times are seconds since the tracer's epoch. Parent is the id of
// the enclosing span (0 for a root); spans of one serve request share Req.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Req    int64   `json:"req,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer records spans in memory; they are written out once the run ends.
// A tracer that is off records nothing, so untraced runs pay only for the
// closure call. delay injects a fixed sleep inside the named span whether
// tracing is on or off — the sensitivity self-test uses it to prove that a
// workload's metrics move with the layer it claims to stress.
type tracer struct {
	on    bool
	epoch time.Time
	delay map[string]time.Duration

	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

func (t *tracer) since(at time.Time) float64 { return at.Sub(t.epoch).Seconds() }

// newID reserves a span id, so a caller can hand it to children (or to a
// remote handler) before the span ends. It returns 0 with tracing off.
func (t *tracer) newID() int64 {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// do runs f as the span name under parent, passing f the span's id.
func (t *tracer) do(name string, parent, req int64, f func(id int64) error) error {
	id := t.newID()
	start := time.Now()
	if d := t.delay[name]; d > 0 {
		time.Sleep(d)
	}
	err := f(id)
	t.record(id, name, parent, req, start, time.Now())
	return err
}

// record stores a finished span under a reserved id; a zero id (tracing
// off) is dropped.
func (t *tracer) record(id int64, name string, parent, req int64, start, end time.Time) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: t.since(start), End: t.since(end)})
	t.mu.Unlock()
}

// snapshot returns the recorded spans ordered by start time.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children, as in
// concurrent serve requests, are counted once).
func selfTimes(spans []span) map[int64]float64 {
	kids := make(map[int64][][2]float64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	self := make(map[int64]float64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(kids[s.ID], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of the intervals clipped to
// [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	if len(iv) == 0 {
		return 0
	}
	c := make([][2]float64, 0, len(iv))
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b > a {
			c = append(c, [2]float64{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	total, curA, curB := 0.0, 0.0, -1.0
	for i, x := range c {
		if i == 0 || x[0] > curB {
			if i > 0 {
				total += curB - curA
			}
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	if len(c) > 0 {
		total += curB - curA
	}
	return total
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// writeSpans writes the span file of a traced run.
func writeSpans(path, workload string, seed int64, spans []span) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
