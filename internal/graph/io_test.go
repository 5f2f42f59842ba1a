package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func TestIORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	orig := RandomSparse(70, 0.9, rng)
	var b strings.Builder
	if err := orig.Write(&b); err != nil {
		t.Fatal(err)
	}
	back, err := Read(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(orig) {
		t.Fatal("round trip lost connections")
	}
}

func TestIOCommentsAndBlanks(t *testing.T) {
	in := `
# a comment
autoncs-net v1

n 3
# edges
0 1

2 0
`
	c, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !c.Has(0, 1) || !c.Has(2, 0) || c.NNZ() != 2 {
		t.Fatalf("parsed wrong network: %v", c)
	}
}

func TestIOErrors(t *testing.T) {
	cases := map[string]string{
		"no header":  "n 3\n0 1\n",
		"bad size":   "autoncs-net v1\nn x\n",
		"no size":    "autoncs-net v1\n",
		"bad edge":   "autoncs-net v1\nn 2\nfoo bar\n",
		"edge range": "autoncs-net v1\nn 2\n0 5\n",
		"neg size":   "autoncs-net v1\nn -2\n",
		"wrong vers": "autoncs-net v2\nn 2\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.txt")
	rng := rand.New(rand.NewSource(2))
	orig := RandomSparse(40, 0.88, rng)
	if err := orig.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(orig) {
		t.Fatal("file round trip lost connections")
	}
	if _, err := Load(filepath.Join(dir, "missing.txt")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestIORoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		c := NewConn(n)
		for e := 0; e < rng.Intn(100); e++ {
			c.Set(rng.Intn(n), rng.Intn(n))
		}
		var b strings.Builder
		if err := c.Write(&b); err != nil {
			return false
		}
		back, err := Read(strings.NewReader(b.String()))
		return err == nil && back.Equal(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// netText serializes a random n-neuron network with the given number of
// distinct edges.
func netText(tb testing.TB, n, edges int, seed int64) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := NewConn(n)
	for c.NNZ() < edges {
		c.Set(rng.Intn(n), rng.Intn(n))
	}
	var b bytes.Buffer
	if err := c.Write(&b); err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}

// TestReadAllocsFlat pins that parsing allocates the same buffers whatever
// the edge count: the scanner, the matrix, nothing per line.
func TestReadAllocsFlat(t *testing.T) {
	small, large := netText(t, 200, 100, 1), netText(t, 200, 2400, 1)
	allocs := func(data []byte) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := Read(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
	}
	a, b := allocs(small), allocs(large)
	if a != b {
		t.Fatalf("Read allocates %v times for 100 edges and %v for 2400: allocations grow with the edge count", a, b)
	}
	if b > 8 {
		t.Fatalf("Read allocates %v times per network, want at most 8", b)
	}
}

// writeReference is the fmt-based writer Write replaced, kept verbatim as
// the reference for its output.
func writeReference(c *Conn, w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, formatHeader)
	fmt.Fprintf(bw, "n %d\n", c.n)
	var buf []int
	for i := 0; i < c.n; i++ {
		buf = c.RowNeighbors(i, buf[:0])
		for _, j := range buf {
			fmt.Fprintf(bw, "%d %d\n", i, j)
		}
	}
	return bw.Flush()
}

// TestWriteMatchesReference: Write produces the fmt reference's bytes on
// the io test networks.
func TestWriteMatchesReference(t *testing.T) {
	nets := map[string]*Conn{
		"empty":      NewConn(0),
		"edgeless":   NewConn(5),
		"round trip": RandomSparse(70, 0.9, rand.New(rand.NewSource(1))),
		"file":       RandomSparse(40, 0.88, rand.New(rand.NewSource(2))),
	}
	for _, edges := range []int{100, 2400} {
		c, err := Read(bytes.NewReader(netText(t, 200, edges, 1)))
		if err != nil {
			t.Fatal(err)
		}
		nets[fmt.Sprintf("200 neurons, %d edges", edges)] = c
	}
	for name, c := range nets {
		var got, want bytes.Buffer
		if err := c.Write(&got); err != nil {
			t.Fatal(err)
		}
		if err := writeReference(c, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: Write output differs from the fmt reference", name)
		}
	}
}

// TestWriteAllocsFlat pins that writing allocates the same buffers
// whatever the edge count: the writer, one line, one neighbour row.
func TestWriteAllocsFlat(t *testing.T) {
	parse := func(edges int) *Conn {
		c, err := Read(bytes.NewReader(netText(t, 200, edges, 1)))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	small, large := parse(100), parse(2400)
	allocs := func(c *Conn) float64 {
		return testing.AllocsPerRun(10, func() {
			if err := c.Write(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	a, b := allocs(small), allocs(large)
	if a != b {
		t.Fatalf("Write allocates %v times for 100 edges and %v for 2400: allocations grow with the edge count", a, b)
	}
	if b > 4 {
		t.Fatalf("Write allocates %v times per network, want at most 4", b)
	}
}

// BenchmarkWrite serializes the serving workload's network size: 200
// neurons, 2,400 edges.
func BenchmarkWrite(b *testing.B) {
	data := netText(b, 200, 2400, 1)
	c, err := Read(bytes.NewReader(data))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := c.Write(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRead parses the serving workload's network size: 200 neurons,
// 2,400 edges.
func BenchmarkRead(b *testing.B) {
	data := netText(b, 200, 2400, 1)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
