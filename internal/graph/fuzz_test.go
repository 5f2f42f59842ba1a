package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

// readReference is the fmt.Sscanf parser Read replaced, kept verbatim as
// the specification of the text format's language: FuzzLoad requires Read
// to accept exactly the inputs it accepts and to build the same networks,
// so the daemon and the client derive the cache keys they always did.
func readReference(r io.Reader) (*Conn, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	line := 0
	next := func() (string, bool) {
		for sc.Scan() {
			line++
			s := strings.TrimSpace(sc.Text())
			if s == "" || strings.HasPrefix(s, "#") {
				continue
			}
			return s, true
		}
		return "", false
	}
	head, ok := next()
	if !ok || head != formatHeader {
		return nil, fmt.Errorf("graph: missing %q header", formatHeader)
	}
	sizeLine, ok := next()
	if !ok {
		return nil, fmt.Errorf("graph: missing size line")
	}
	var n int
	if _, err := fmt.Sscanf(sizeLine, "n %d", &n); err != nil {
		return nil, fmt.Errorf("graph: bad size line %q at line %d: %v", sizeLine, line, err)
	}
	if n < 0 {
		return nil, fmt.Errorf("graph: negative size %d", n)
	}
	if n > MaxLoadNeurons {
		return nil, fmt.Errorf("graph: size %d exceeds the %d-neuron load limit", n, MaxLoadNeurons)
	}
	c := NewConn(n)
	for {
		s, ok := next()
		if !ok {
			break
		}
		var i, j int
		if _, err := fmt.Sscanf(s, "%d %d", &i, &j); err != nil {
			return nil, fmt.Errorf("graph: bad edge %q at line %d: %v", s, line, err)
		}
		if i < 0 || i >= n || j < 0 || j >= n {
			return nil, fmt.Errorf("graph: edge %d→%d out of range %d at line %d", i, j, n, line)
		}
		c.Set(i, j)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	return c, nil
}

// edgeSeeds are edge lines on the boundary of the format's language, with
// the reference parser's decision: trailing text is ignored, signs and
// leading zeros parse, and any Unicode space separates the numbers; a
// missing space, a non-decimal token, a doubled sign or a number beyond
// int64 is rejected.
var edgeSeeds = []struct {
	line     string
	accepted bool
}{
	{"1 2x", true}, {"1 2 extra", true}, {"+1 2", true}, {"1 -0", true}, {"01 002", true},
	{"1\u00a02", true}, {"1\u20032", true}, {"1\t\v2", true}, {"1\r2", true},
	{"1,2", false}, {"12x 3", false}, {"0x1 2", false}, {"1_0 2", false}, {"1 ++2", false},
	{"1 2" + strings.Repeat("0", 19), false}, {"1", false}, {"1 ", false}, {"- 1 2", false},
}

// FuzzLoad drives the text-format parser with arbitrary input, against
// the fmt.Sscanf reference parser: every input must get the same
// accept/reject decision from both, and an accepted one the same network.
// Malformed, truncated, and oversized files must come back as errors —
// never as a panic or an unbounded allocation — and anything accepted
// must be internally consistent and round-trip through Write.
func FuzzLoad(f *testing.F) {
	seeds := []string{
		"autoncs-net v1\nn 4\n0 1\n1 0\n2 3\n",
		"autoncs-net v1\nn 4\n",
		"autoncs-net v1\nn 4\n# comment\n\n3 3\n",
		"autoncs-net v1\nn 0\n",
		"autoncs-net v1",
		"autoncs-net v1\nn",
		"autoncs-net v1\nn -7\n",
		"autoncs-net v1\nn 999999999999999999999\n",
		"autoncs-net v1\nn 2000000\n",
		"autoncs-net v1\nn 4\n0\n",
		"autoncs-net v1\nn 4\n0 9\n",
		"autoncs-net v1\nn 4\n-1 2\n",
		"autoncs-net v1\nn 4\n0 1 extra\n",
		"autoncs-net v2\nn 4\n0 1\n",
		"autoncs-net v1\nn5\n",
		"autoncs-net v1\nn +4 junk\n",
		"autoncs-net v1\n n 4 \n",
		"",
		"garbage\n",
	}
	for _, e := range edgeSeeds {
		in := "autoncs-net v1\nn 4\n" + e.line + "\n"
		if _, err := readReference(strings.NewReader(in)); (err == nil) != e.accepted {
			f.Fatalf("%q: reference parser error %v, want accepted=%v", e.line, err, e.accepted)
		}
		seeds = append(seeds, in)
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Read(bytes.NewReader(data))
		ref, refErr := readReference(bytes.NewReader(data))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Read error %v, reference parser error %v", err, refErr)
		}
		if err != nil {
			return
		}
		if c == nil {
			t.Fatal("nil network without error")
		}
		if !c.Equal(ref) {
			t.Fatalf("Read built %v, the reference parser %v", c, ref)
		}
		if c.N() < 0 || c.N() > MaxLoadNeurons {
			t.Fatalf("accepted out-of-range size %d", c.N())
		}
		if c.NNZ() < 0 || c.NNZ() > c.N()*c.N() {
			t.Fatalf("inconsistent NNZ %d for %d neurons", c.NNZ(), c.N())
		}
		// Round-trip: what the parser accepted must re-serialize to an
		// equal network.
		var buf strings.Builder
		if err := c.Write(&buf); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		back, err := Read(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("round-trip re-read failed: %v", err)
		}
		if !c.Equal(back) {
			t.Fatal("round-trip changed the network")
		}
	})
}
