package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randSym returns a random n×n symmetric matrix.
func randSym(n int, rng *rand.Rand) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func TestEigSymDiagonal(t *testing.T) {
	a := NewDenseFrom([][]float64{{3, 0, 0}, {0, 1, 0}, {0, 0, 2}})
	vals, vecs, err := EigSym(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i, w := range want {
		if math.Abs(vals[i]-w) > 1e-12 {
			t.Fatalf("vals = %v, want %v", vals, want)
		}
	}
	// Eigenvectors of a diagonal matrix are (signed) unit basis vectors.
	perm := []int{1, 2, 0} // value order 1,2,3 came from rows 1,2,0
	for j, row := range perm {
		if math.Abs(math.Abs(vecs.At(row, j))-1) > 1e-12 {
			t.Fatalf("eigenvector %d not a basis vector:\n%v", j, vecs)
		}
	}
}

func TestEigSymKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a := NewDenseFrom([][]float64{{2, 1}, {1, 2}})
	vals, _, err := EigSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-1) > 1e-12 || math.Abs(vals[1]-3) > 1e-12 {
		t.Fatalf("vals = %v, want [1 3]", vals)
	}
}

func TestEigSymEmpty(t *testing.T) {
	vals, vecs, err := EigSym(NewDense(0, 0))
	if err != nil || len(vals) != 0 || vecs.Rows() != 0 {
		t.Fatalf("empty EigSym: vals=%v vecs=%v err=%v", vals, vecs, err)
	}
}

func TestEigSymNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EigSym on non-square did not panic")
		}
	}()
	EigSym(NewDense(2, 3))
}

// checkDecomposition verifies A·v_j ≈ λ_j·v_j for every eigenpair, that the
// eigenvalues are ascending, and that the eigenvectors are orthonormal.
func checkDecomposition(t *testing.T, a *Dense, vals []float64, vecs *Dense, tol float64) {
	t.Helper()
	n := a.Rows()
	scale := a.MaxAbs() + 1
	for j := 0; j < n; j++ {
		v := vecs.Col(j)
		av := a.MulVec(v)
		for i := 0; i < n; i++ {
			if diff := math.Abs(av[i] - vals[j]*v[i]); diff > tol*scale {
				t.Fatalf("eigenpair %d: |A·v - λ·v|[%d] = %g", j, i, diff)
			}
		}
		if j > 0 && vals[j] < vals[j-1] {
			t.Fatalf("eigenvalues not ascending: %v", vals)
		}
	}
	for j := 0; j < n; j++ {
		for k := j; k < n; k++ {
			dot := 0.0
			for i := 0; i < n; i++ {
				dot += vecs.At(i, j) * vecs.At(i, k)
			}
			want := 0.0
			if j == k {
				want = 1
			}
			if math.Abs(dot-want) > tol {
				t.Fatalf("eigenvectors %d,%d not orthonormal: dot=%g", j, k, dot)
			}
		}
	}
}

func TestEigSymRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 5, 10, 25, 60} {
		a := randSym(n, rng)
		vals, vecs, err := EigSym(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		checkDecomposition(t, a, vals, vecs, 1e-9)
	}
}

func TestEigSymTraceAndFrobenius(t *testing.T) {
	// Sum of eigenvalues equals the trace; sum of squares equals ‖A‖²_F.
	rng := rand.New(rand.NewSource(11))
	a := randSym(30, rng)
	vals, _, err := EigSym(a)
	if err != nil {
		t.Fatal(err)
	}
	trace, frob := 0.0, 0.0
	for i := 0; i < 30; i++ {
		trace += a.At(i, i)
		for j := 0; j < 30; j++ {
			frob += a.At(i, j) * a.At(i, j)
		}
	}
	sum, sq := 0.0, 0.0
	for _, v := range vals {
		sum += v
		sq += v * v
	}
	if math.Abs(sum-trace) > 1e-9 {
		t.Errorf("Σλ = %g, trace = %g", sum, trace)
	}
	if math.Abs(sq-frob) > 1e-8 {
		t.Errorf("Σλ² = %g, ‖A‖²_F = %g", sq, frob)
	}
}

func TestEigSymRepeatedEigenvalues(t *testing.T) {
	// The identity has a single eigenvalue 1 with full multiplicity.
	vals, vecs, err := EigSym(Identity(6))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if math.Abs(v-1) > 1e-12 {
			t.Fatalf("identity eigenvalues = %v", vals)
		}
	}
	checkDecomposition(t, Identity(6), vals, vecs, 1e-10)
}

func TestEigSymGraphLaplacian(t *testing.T) {
	// Path graph P3 Laplacian has eigenvalues 0, 1, 3.
	l := NewDenseFrom([][]float64{
		{1, -1, 0},
		{-1, 2, -1},
		{0, -1, 1},
	})
	vals, _, err := EigSym(l)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1, 3}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-12 {
			t.Fatalf("P3 Laplacian eigenvalues = %v, want %v", vals, want)
		}
	}
}

func TestEigSymProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a := randSym(n, rng)
		vals, vecs, err := EigSym(a)
		if err != nil {
			return false
		}
		scale := a.MaxAbs() + 1
		for j := 0; j < n; j++ {
			v := vecs.Col(j)
			av := a.MulVec(v)
			for i := 0; i < n; i++ {
				if math.Abs(av[i]-vals[j]*v[i]) > 1e-8*scale {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGeneralizedSym(t *testing.T) {
	// Graph Laplacian of the triangle graph with one weak edge; D = degree.
	w := NewDenseFrom([][]float64{
		{0, 1, 0.5},
		{1, 0, 1},
		{0.5, 1, 0},
	})
	n := 3
	d := make([]float64, n)
	l := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d[i] += w.At(i, j)
			if i != j {
				l.Set(i, j, -w.At(i, j))
			}
		}
	}
	for i := 0; i < n; i++ {
		l.Set(i, i, d[i])
	}
	vals, u, err := GeneralizedSymN(l, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Check L·u = λ·D·u for each pair.
	for j := 0; j < n; j++ {
		uj := u.Col(j)
		lu := l.MulVec(uj)
		for i := 0; i < n; i++ {
			if math.Abs(lu[i]-vals[j]*d[i]*uj[i]) > 1e-10 {
				t.Fatalf("pair %d violates L·u = λD·u at %d", j, i)
			}
		}
	}
	// Smallest eigenvalue of a connected graph Laplacian is 0, with a
	// constant generalized eigenvector.
	if math.Abs(vals[0]) > 1e-10 {
		t.Errorf("λ₀ = %g, want 0", vals[0])
	}
	u0 := u.Col(0)
	for i := 1; i < n; i++ {
		if math.Abs(u0[i]-u0[0]) > 1e-9 {
			t.Errorf("u₀ not constant: %v", u0)
		}
	}
}

func TestGeneralizedSymRejectsNonPositiveDiagonal(t *testing.T) {
	l := Identity(2)
	if _, _, err := GeneralizedSymN(l, []float64{1, 0}, 1); err == nil {
		t.Fatal("zero diagonal accepted")
	}
	if _, _, err := GeneralizedSymN(l, []float64{1, -2}, 1); err == nil {
		t.Fatal("negative diagonal accepted")
	}
}

func TestGeneralizedSymIdentityDReducesToStandard(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randSym(8, rng)
	d := make([]float64, 8)
	for i := range d {
		d[i] = 1
	}
	gv, _, err := GeneralizedSymN(a, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	sv, _, err := EigSym(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sv {
		if math.Abs(gv[i]-sv[i]) > 1e-9 {
			t.Fatalf("generalized with D=I diverges from standard: %v vs %v", gv, sv)
		}
	}
}

// BenchmarkEigSym times the dense eigensolver on normalized graph
// Laplacians at 95% sparsity: at the paper's smallest and largest
// testbench sizes (tb1 has 300 neurons, tb3 500) and at n=100.
func BenchmarkEigSym(b *testing.B) {
	for _, n := range []int{100, 300, 500} {
		l, deg := pinLaplacian(n, n, 0.05, 0.05, int64(n))
		a := normalized(l, deg)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := EigSym(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
