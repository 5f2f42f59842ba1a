package kmeans

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// blobs generates k Gaussian blobs of count points each around well
// separated centers.
func blobs(k, count int, rng *rand.Rand) (points [][]float64, label []int) {
	for c := 0; c < k; c++ {
		cx, cy := float64(c*20), float64((c%2)*20)
		for i := 0; i < count; i++ {
			points = append(points, []float64{cx + rng.NormFloat64(), cy + rng.NormFloat64()})
			label = append(label, c)
		}
	}
	return points, label
}

func TestRunRecoversSeparatedBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	points, label := blobs(4, 30, rng)
	res := RunWS(nil, points, 4, rng, 1)
	// Every true blob must map to exactly one k-means cluster.
	blobToCluster := map[int]int{}
	for i, l := range label {
		c := res.Assign[i]
		if prev, ok := blobToCluster[l]; ok {
			if prev != c {
				t.Fatalf("blob %d split across clusters %d and %d", l, prev, c)
			}
		} else {
			blobToCluster[l] = c
		}
	}
	if len(blobToCluster) != 4 {
		t.Fatalf("recovered %d clusters, want 4", len(blobToCluster))
	}
}

func TestRunInvalidInputsPanic(t *testing.T) {
	pts := [][]float64{{0}, {1}}
	for name, f := range map[string]func(){
		"k=0":    func() { RunWS(nil, pts, 0, rand.New(rand.NewSource(1)), 1) },
		"k>n":    func() { RunWS(nil, pts, 3, rand.New(rand.NewSource(1)), 1) },
		"ragged": func() { RunWS(nil, [][]float64{{0}, {1, 2}}, 1, rand.New(rand.NewSource(1)), 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestRunKEqualsN(t *testing.T) {
	pts := [][]float64{{0, 0}, {1, 1}, {2, 2}}
	res := RunWS(nil, pts, 3, rand.New(rand.NewSource(1)), 1)
	seen := map[int]bool{}
	for _, c := range res.Assign {
		seen[c] = true
	}
	if len(seen) != 3 {
		t.Fatalf("k=n should give singleton clusters, got assign %v", res.Assign)
	}
	if res.Inertia > 1e-12 {
		t.Fatalf("k=n inertia = %g, want 0", res.Inertia)
	}
}

func TestRunIdenticalPoints(t *testing.T) {
	pts := [][]float64{{5, 5}, {5, 5}, {5, 5}, {5, 5}}
	res := RunWS(nil, pts, 2, rand.New(rand.NewSource(1)), 1)
	if res.K() != 2 {
		t.Fatalf("K = %d, want 2", res.K())
	}
	// All clusters non-empty is guaranteed by repair... but with identical
	// points the farthest-point repair may keep one empty assignment set;
	// what matters is the result is well formed.
	if len(res.Assign) != 4 {
		t.Fatalf("Assign length %d", len(res.Assign))
	}
}

func TestMembersPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	points, _ := blobs(3, 20, rng)
	res := RunWS(nil, points, 3, rng, 1)
	members := res.Members()
	seen := make([]bool, len(points))
	for _, ms := range members {
		for _, m := range ms {
			if seen[m] {
				t.Fatalf("point %d in two clusters", m)
			}
			seen[m] = true
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("point %d in no cluster", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	points, _ := blobs(3, 25, rand.New(rand.NewSource(3)))
	a := RunWS(nil, points, 3, rand.New(rand.NewSource(42)), 1)
	b := RunWS(nil, points, 3, rand.New(rand.NewSource(42)), 1)
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed produced different clusterings")
		}
	}
	if a.Inertia != b.Inertia {
		t.Fatal("same seed produced different inertia")
	}
}

func TestRunWithCentroidsDoesNotMutateInput(t *testing.T) {
	points, _ := blobs(2, 10, rand.New(rand.NewSource(4)))
	init := [][]float64{{0, 0}, {20, 20}}
	initCopy := [][]float64{{0, 0}, {20, 20}}
	Run0 := RunWithCentroidsWS(nil, points, init, rand.New(rand.NewSource(1)), 1)
	if Run0.K() != 2 {
		t.Fatalf("K = %d", Run0.K())
	}
	for i := range init {
		for d := range init[i] {
			if init[i][d] != initCopy[i][d] {
				t.Fatal("RunWithCentroids mutated caller centroids")
			}
		}
	}
}

func TestRunWithCentroidsPanics(t *testing.T) {
	pts := [][]float64{{0}, {1}}
	for name, f := range map[string]func(){
		"empty":    func() { RunWithCentroidsWS(nil, pts, nil, rand.New(rand.NewSource(1)), 1) },
		"too many": func() { RunWithCentroidsWS(nil, pts, [][]float64{{0}, {1}, {2}}, rand.New(rand.NewSource(1)), 1) },
		"bad dim":  func() { RunWithCentroidsWS(nil, pts, [][]float64{{0, 1}}, rand.New(rand.NewSource(1)), 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSplitSeparatesTwoBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var points [][]float64
	for i := 0; i < 10; i++ {
		points = append(points, []float64{rng.NormFloat64(), rng.NormFloat64()})
	}
	for i := 0; i < 10; i++ {
		points = append(points, []float64{50 + rng.NormFloat64(), rng.NormFloat64()})
	}
	members := make([]int, 20)
	for i := range members {
		members[i] = i
	}
	a, b, ca, cb := SplitWS(nil, points, members, rng, 1)
	if len(a)+len(b) != 20 || len(a) == 0 || len(b) == 0 {
		t.Fatalf("split sizes %d + %d", len(a), len(b))
	}
	// The two centroids must be far apart (one per blob).
	if d := math.Hypot(ca[0]-cb[0], ca[1]-cb[1]); d < 25 {
		t.Fatalf("split centroids only %g apart", d)
	}
	// No index may appear in both halves.
	inA := map[int]bool{}
	for _, i := range a {
		inA[i] = true
	}
	for _, i := range b {
		if inA[i] {
			t.Fatalf("index %d in both halves", i)
		}
	}
}

func TestSplitIdenticalPointsMakesProgress(t *testing.T) {
	points := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}}
	members := []int{0, 1, 2, 3, 4}
	a, b, _, _ := SplitWS(nil, points, members, rand.New(rand.NewSource(1)), 1)
	if len(a) == 0 || len(b) == 0 {
		t.Fatalf("split of identical points gave sizes %d/%d; must both be positive", len(a), len(b))
	}
}

func TestSplitTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Split of singleton did not panic")
		}
	}()
	SplitWS(nil, [][]float64{{0}}, []int{0}, rand.New(rand.NewSource(1)), 1)
}

// Property: the result is always a partition with k non-empty groups when
// points are in general position.
func TestPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		k := 1 + rng.Intn(5)
		if k > n {
			k = n
		}
		points := make([][]float64, n)
		for i := range points {
			points[i] = []float64{rng.NormFloat64() * 10, rng.NormFloat64() * 10}
		}
		res := RunWS(nil, points, k, rng, 1)
		if len(res.Assign) != n {
			return false
		}
		for _, c := range res.Assign {
			if c < 0 || c >= k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: inertia never exceeds the inertia of the trivial 1-clustering.
func TestInertiaImprovesOverSingleClusterProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(40)
		points := make([][]float64, n)
		for i := range points {
			points[i] = []float64{rng.NormFloat64() * 5, rng.NormFloat64() * 5}
		}
		one := RunWS(nil, points, 1, rand.New(rand.NewSource(seed)), 1)
		three := RunWS(nil, points, 3, rand.New(rand.NewSource(seed)), 1)
		return three.Inertia <= one.Inertia+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
