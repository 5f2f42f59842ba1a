package matrix

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// eigPinCase is one input of the bit-pin test: a for EigSym, and the pair
// (l, d) for GeneralizedSymN.
type eigPinCase struct {
	name string
	a    *Dense
	l    *Dense
	d    []float64
}

// pinLaplacian returns the Laplacian and degrees of a seeded unit-weight
// random graph whose vertices fall into consecutive blocks of the given
// size: a pair inside one block is joined with probability pIn, any other
// pair with pOut. Isolated vertices get degree 1 so D stays invertible.
func pinLaplacian(n, block int, pIn, pOut float64, seed int64) (*Dense, []float64) {
	rng := rand.New(rand.NewSource(seed))
	l := NewDense(n, n)
	deg := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p := pOut
			if i/block == j/block {
				p = pIn
			}
			if rng.Float64() < p {
				l.Set(i, j, -1)
				l.Set(j, i, -1)
				deg[i]++
				deg[j]++
			}
		}
	}
	for i := range deg {
		if deg[i] == 0 {
			deg[i] = 1
		}
		l.Set(i, i, deg[i])
	}
	return l, deg
}

// normalized returns D^{-1/2}·L·D^{-1/2} for a unit-weight Laplacian,
// evaluated entry by entry as (l_ij·s_i)·s_j.
func normalized(l *Dense, deg []float64) *Dense {
	n := l.Rows()
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, l.At(i, j)*(1/math.Sqrt(deg[i]))*(1/math.Sqrt(deg[j])))
		}
	}
	return m
}

func eigPinCases() []eigPinCase {
	var cases []eigPinCase
	for _, n := range []int{0, 1, 2, 7} {
		rng := rand.New(rand.NewSource(int64(100 + n)))
		a := randSym(n, rng)
		d := make([]float64, n)
		for i := range d {
			d[i] = 0.5 + rng.Float64()
		}
		cases = append(cases, eigPinCase{name: "seeded", a: a, l: a, d: d})
	}
	diag := NewDenseFrom([][]float64{
		{3, 0, 0, 0, 0},
		{0, -1, 0, 0, 0},
		{0, 0, 2, 0, 0},
		{0, 0, 0, 0.5, 0},
		{0, 0, 0, 0, 7},
	})
	cases = append(cases, eigPinCase{name: "diagonal", a: diag, l: diag, d: []float64{1, 2, 0.25, 4, 3}})
	// The complete graph K_6: Laplacian eigenvalue 6 repeated five times.
	k6 := NewDense(6, 6)
	k6deg := make([]float64, 6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if i != j {
				k6.Set(i, j, -1)
			}
		}
		k6.Set(i, i, 5)
		k6deg[i] = 5
	}
	cases = append(cases, eigPinCase{name: "repeated", a: k6, l: k6, d: k6deg})
	for _, n := range []int{300, 400, 500} {
		// Uniform at 95% sparsity, the regime of the paper's testbenches.
		l, deg := pinLaplacian(n, n, 0.05, 0.05, int64(n))
		cases = append(cases, eigPinCase{name: "laplacian", a: normalized(l, deg), l: l, d: deg})
	}
	return cases
}

// eigDigest hashes the IEEE-754 bits of the eigenvalues and then of the
// eigenvector matrix in row-major order.
func eigDigest(vals []float64, vecs *Dense) string {
	h := sha256.New()
	var b [8]byte
	put := func(x float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	for _, v := range vals {
		put(v)
	}
	for i := 0; i < vecs.Rows(); i++ {
		for j := 0; j < vecs.Cols(); j++ {
			put(vecs.At(i, j))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEigBitsPinned pins every output bit of the dense eigensolver: the
// SHA-256 of the eigenvalue and eigenvector bits of EigSym and
// GeneralizedSymN on seeded inputs up to the paper's testbench sizes. The
// tolerance tests elsewhere cannot see a last-bit change; this one fails
// on it, before a golden clustering flips. GeneralizedSymN is checked at
// several worker counts against the same digest. Other architectures may
// fuse multiply-adds, which legitimately moves the last bits.
func TestEigBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("bit pins are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	want := []struct{ eig, gen string }{
		{"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
		{"f0d93d8ff826d10349427acd32278e7dcc38fa049e77267703aa1a0b49fabde2", "5812fadea0a2ffab9728badfbe0014877d02aaa1ac83ee0418d15fc7bc08af50"},
		{"9b9723e59f948a42e9409f526b6dadda9f91de29f1e6fd6fba20bb47efb90aa0", "509ede1c92947a1777b581ebf0d659d04150f1d61dc7095b22b49aaaed8f68b8"},
		{"b901b518d311786e837be1b27f51d647dea17efc19a5aa9788a6322df8477f93", "06e03caa64f6aa6c8a92511b88a08ebe70cb1a597d23957bfc5ce936ac633a9d"},
		{"516658216da51c1d31565593219882df9b398b31f61f1932eaf2dcb3be7dea92", "fcd03ecdb77f7182bdb78e65437e4fee3052bcfee5d4f1b76a94b1c8746f19ef"},
		{"639c79382157047a17cb6fd5e6dce99b5c804f2ccde1c9b7aec8a655a8661f89", "078c1bc2d9f77425802de20381b56519dbb1067802d8da68942f1c5a866af3ca"},
		{"e3b0f89ecb1226513c8afc92067515b789b500183baf79f8af69cd446c19cc1b", "74b6b89f74e85d2a19941703495af3a0dc5bda45b6bebbc59cf2c4c4239a0305"},
		{"2ce56819cee4cd40dfe01f73e04725ac8e8deb0426cb7e85d684711c57794c8d", "9c3221db422b0fd93b0e47a9ab250b20dce0f0f58500d01773bf2b8a94638407"},
		{"320655ba2a92d617b0eef65bf56dc8516ec275a43ace5e8584fd80303a443ace", "e67dad81b59c9820179ae5ceb7b5a1dde959f0167c6228eddb386acdf38ef9ac"},
	}
	cases := eigPinCases()
	if len(cases) != len(want) {
		t.Fatalf("%d cases, %d pinned digests", len(cases), len(want))
	}
	for i, c := range cases {
		n := c.a.Rows()
		vals, vecs, err := EigSym(c.a)
		if err != nil {
			t.Fatalf("%s n=%d: EigSym: %v", c.name, n, err)
		}
		if got := eigDigest(vals, vecs); got != want[i].eig {
			t.Errorf("%s n=%d: EigSym digest %s, pinned %s", c.name, n, got, want[i].eig)
		}
		for _, workers := range []int{1, 2, 4} {
			vals, u, err := GeneralizedSymN(c.l, c.d, workers)
			if err != nil {
				t.Fatalf("%s n=%d workers=%d: GeneralizedSymN: %v", c.name, n, workers, err)
			}
			if got := eigDigest(vals, u); got != want[i].gen {
				t.Errorf("%s n=%d workers=%d: GeneralizedSymN digest %s, pinned %s", c.name, n, workers, got, want[i].gen)
			}
		}
	}
}

// TestLanczosBitsPinned pins the Lanczos solver, whose tridiagonal
// projections run through the same dense kernel: the SHA-256 of the Ritz
// value and vector bits of the fixed-step solve and of the early-stopping
// one, which stops early on this eight-cluster graph, at two worker counts.
func TestLanczosBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("bit pins are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	const n, k = 400, 8
	l, deg := pinLaplacian(n, 50, 0.3, 0.002, 41)
	rowPtr, col, wts := laplacianCSR(l)
	var op CSRLaplacianOp
	if err := op.Init(n, deg, rowPtr, col, wts, 1); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		var ws LanczosWS
		vals, vecs, _, err := LanczosSmallest(&ws, op.Mul, n, k, rand.New(rand.NewSource(5)), workers, false)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := eigDigest(vals, vecs), "17fd3bc0e7d5286f8bcb9384ee36ae4946f5ecc97c3df9f4151f1ed484c26b97"; got != want {
			t.Errorf("workers=%d: fixed-step digest %s, pinned %s", workers, got, want)
		}
		vals, vecs, steps, err := LanczosSmallest(&ws, op.Mul, n, k, rand.New(rand.NewSource(5)), workers, true)
		if err != nil {
			t.Fatal(err)
		}
		if steps != 64 {
			t.Errorf("workers=%d: early-stopping solve took %d steps, pinned 64", workers, steps)
		}
		if got, want := eigDigest(vals, vecs), "da4dfff388752a9b56535e7b97898ab4a2b3622f4d8cdc8908aed097046ddcfd"; got != want {
			t.Errorf("workers=%d: early-stopping digest %s, pinned %s", workers, got, want)
		}
	}
}
