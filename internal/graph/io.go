package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// The network text format is a minimal edge list:
//
//	autoncs-net v1
//	n <neurons>
//	<from> <to>
//	...
//
// Lines starting with '#' and blank lines are ignored. The format is
// self-describing enough to hand-write test networks and diff in reviews.

const formatHeader = "autoncs-net v1"

// MaxLoadNeurons caps the declared size of a loaded network. The bitset
// representation costs n²/8 bytes, so an attacker-controlled (or merely
// corrupted) size line would otherwise turn into an unbounded allocation:
// 32768 neurons is already a 128 MB matrix, far beyond any network the
// text edge-list format is practical for.
const MaxLoadNeurons = 32768

// Write serializes the network in the text edge-list format. Lines are
// appended into the buffered writer with no fmt, so writing allocates the
// same few buffers whatever the edge count (TestWriteAllocsFlat).
func (c *Conn) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	line := make([]byte, 0, 48) // two int64s, a space and a newline
	line = append(line, formatHeader+"\nn "...)
	line = strconv.AppendInt(line, int64(c.n), 10)
	bw.Write(append(line, '\n'))
	nbrs := make([]int, 0, c.n)
	for i := 0; i < c.n; i++ {
		nbrs = c.RowNeighbors(i, nbrs[:0])
		for _, j := range nbrs {
			line = strconv.AppendInt(line[:0], int64(i), 10)
			line = append(line, ' ')
			line = strconv.AppendInt(line, int64(j), 10)
			bw.Write(append(line, '\n'))
		}
	}
	return bw.Flush()
}

// Read parses a network from the text edge-list format. Lines are scanned
// as bytes, with no per-line string and no fmt, so parsing allocates the
// same few buffers whatever the edge count (TestReadAllocsFlat).
func Read(r io.Reader) (*Conn, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	line := 0
	next := func() ([]byte, bool) {
		for sc.Scan() {
			line++
			s := bytes.TrimSpace(sc.Bytes())
			if len(s) == 0 || s[0] == '#' {
				continue
			}
			return s, true
		}
		return nil, false
	}
	head, ok := next()
	if !ok || string(head) != formatHeader {
		return nil, fmt.Errorf("graph: missing %q header", formatHeader)
	}
	sizeLine, ok := next()
	if !ok {
		return nil, fmt.Errorf("graph: missing size line")
	}
	n, err := scanSize(sizeLine)
	if err != nil {
		return nil, fmt.Errorf("graph: bad size line %q at line %d: %v", sizeLine, line, err)
	}
	if n < 0 {
		return nil, fmt.Errorf("graph: negative size %d", n)
	}
	if n > MaxLoadNeurons {
		return nil, fmt.Errorf("graph: size %d exceeds the %d-neuron load limit", n, MaxLoadNeurons)
	}
	c := NewConn(int(n))
	for {
		s, ok := next()
		if !ok {
			break
		}
		i, j, err := scanEdge(s)
		if err != nil {
			return nil, fmt.Errorf("graph: bad edge %q at line %d: %v", s, line, err)
		}
		if i < 0 || i >= n || j < 0 || j >= n {
			return nil, fmt.Errorf("graph: edge %d→%d out of range %d at line %d", i, j, n, line)
		}
		c.Set(int(i), int(j))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	return c, nil
}

// The size and edge lines accept exactly the language fmt.Sscanf's "n %d"
// and "%d %d" accept (FuzzLoad checks the two parsers against each other):
// a number is an optional sign and decimal digits within int64 range,
// fields are separated by one or more Unicode spaces, and whatever follows
// the last number is ignored.
var (
	errNoSizeTag = errors.New(`expected "n"`)
	errNoDigits  = errors.New("expected integer")
	errRange     = errors.New("integer out of range")
	errNoSpace   = errors.New("expected space between fields")
)

// scanSize parses a size line, "n <neurons>".
func scanSize(s []byte) (int64, error) {
	if len(s) == 0 || s[0] != 'n' {
		return 0, errNoSizeTag
	}
	s, ok := skipSpace(s[1:])
	if !ok {
		return 0, errNoSpace
	}
	n, _, err := scanInt(s)
	return n, err
}

// scanEdge parses an edge line, "<from> <to>".
func scanEdge(s []byte) (i, j int64, err error) {
	if i, s, err = scanInt(s); err != nil {
		return 0, 0, err
	}
	s, ok := skipSpace(s)
	if !ok {
		return 0, 0, errNoSpace
	}
	if j, _, err = scanInt(s); err != nil {
		return 0, 0, err
	}
	return i, j, nil
}

// scanInt parses the number at the start of s, as strconv.ParseInt(tok,
// 10, 64) parses the token of an optional sign and the digits after it,
// and returns the rest of s.
func scanInt(s []byte) (int64, []byte, error) {
	k := 0
	neg := false
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		neg = s[0] == '-'
		k++
	}
	const maxMag = 1 << 63 // |math.MinInt64|
	var u uint64
	over := false
	start := k
	for ; k < len(s) && '0' <= s[k] && s[k] <= '9'; k++ {
		if u > maxMag/10 {
			over = true // keep consuming: the token ends at the last digit
			continue
		}
		u = u*10 + uint64(s[k]-'0')
	}
	if k == start {
		return 0, s, errNoDigits
	}
	if over || u > maxMag || (!neg && u == maxMag) {
		return 0, s, errRange
	}
	v := int64(u)
	if neg {
		v = -v
	}
	return v, s[k:], nil
}

// skipSpace strips the leading Unicode spaces of s and reports whether
// there was at least one.
func skipSpace(s []byte) ([]byte, bool) {
	k := 0
	for k < len(s) {
		r, w := rune(s[k]), 1
		if r >= utf8.RuneSelf {
			r, w = utf8.DecodeRune(s[k:])
		}
		if r == '\n' || !unicode.IsSpace(r) {
			break
		}
		k += w
	}
	return s[k:], k > 0
}

// Save writes the network to a file.
func (c *Conn) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("graph: %w", err)
	}
	defer f.Close()
	return c.Write(f)
}

// Load reads a network from a file.
func Load(path string) (*Conn, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	defer f.Close()
	return Read(f)
}
