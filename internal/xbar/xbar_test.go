package xbar

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/hopfield"
)

func TestNewLibraryValidation(t *testing.T) {
	if _, err := NewLibrary(); err == nil {
		t.Error("empty library accepted")
	}
	if _, err := NewLibrary(16, 0); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := NewLibrary(16, -4); err == nil {
		t.Error("negative size accepted")
	}
	l, err := NewLibrary(64, 16, 32, 16)
	if err != nil {
		t.Fatal(err)
	}
	got := l.Sizes()
	want := []int{16, 32, 64}
	if len(got) != len(want) {
		t.Fatalf("Sizes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sizes = %v, want %v", got, want)
		}
	}
}

func TestDefaultLibrary(t *testing.T) {
	l := DefaultLibrary()
	if l.Min() != 16 || l.Max() != 64 {
		t.Fatalf("default library range [%d,%d], want [16,64]", l.Min(), l.Max())
	}
	sizes := l.Sizes()
	if len(sizes) != 13 {
		t.Fatalf("default library has %d sizes, want 13 (16..64 step 4)", len(sizes))
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i]-sizes[i-1] != 4 {
			t.Fatalf("non-uniform step in %v", sizes)
		}
	}
}

func TestFitFor(t *testing.T) {
	l := DefaultLibrary()
	cases := []struct {
		cluster int
		want    int
		ok      bool
	}{
		{1, 16, true},
		{16, 16, true},
		{17, 20, true},
		{64, 64, true},
		{65, 0, false},
	}
	for _, c := range cases {
		got, ok := l.FitFor(c.cluster)
		if got != c.want || ok != c.ok {
			t.Errorf("FitFor(%d) = %d,%v, want %d,%v", c.cluster, got, ok, c.want, c.ok)
		}
	}
}

func TestPreferenceCriteria(t *testing.T) {
	// (a) fixed s: CP increases with m.
	if Preference(10, 16) >= Preference(20, 16) {
		t.Error("CP not increasing in m")
	}
	// (b) fixed m: CP decreases with s.
	if Preference(10, 16) <= Preference(10, 32) {
		t.Error("CP not decreasing in s")
	}
	// CP = u·s identity.
	c := Crossbar{Size: 20, Conns: make([]graph.Edge, 50)}
	if c.Used() != 50 {
		t.Fatalf("Used = %d, want 50", c.Used())
	}
	if math.Abs(c.Preference()-c.Utilization()*20) > 1e-12 {
		t.Error("CP != u·s")
	}
}

func TestPreferenceInvalidSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Preference(1, 0) did not panic")
		}
	}()
	Preference(1, 0)
}

func TestCrossbarNeuronsUnion(t *testing.T) {
	c := Crossbar{Inputs: []int{3, 1}, Outputs: []int{1, 7}}
	got := c.Neurons()
	want := []int{1, 3, 7}
	if len(got) != len(want) {
		t.Fatalf("Neurons = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neurons = %v, want %v", got, want)
		}
	}
}

// smallNet builds a 6-neuron net: dense triangle {0,1,2} plus edge 3→4.
func smallNet() *graph.Conn {
	c := graph.NewConn(6)
	for _, e := range [][2]int{{0, 1}, {1, 0}, {0, 2}, {2, 0}, {1, 2}, {2, 1}, {3, 4}} {
		c.Set(e[0], e[1])
	}
	return c
}

func validAssignment(cm *graph.Conn) *Assignment {
	return &Assignment{
		N:     cm.N(),
		Total: cm.NNZ(),
		Crossbars: []Crossbar{{
			Size:    16,
			Inputs:  []int{0, 1, 2},
			Outputs: []int{0, 1, 2},
			Conns: []graph.Edge{
				{From: 0, To: 1}, {From: 1, To: 0},
				{From: 0, To: 2}, {From: 2, To: 0},
				{From: 1, To: 2}, {From: 2, To: 1},
			},
		}},
		Synapses: []graph.Edge{{From: 3, To: 4}},
	}
}

func TestAssignmentStats(t *testing.T) {
	cm := smallNet()
	a := validAssignment(cm)
	if err := a.Validate(cm); err != nil {
		t.Fatalf("valid assignment rejected: %v", err)
	}
	if got := a.MappedConnections(); got != 6 {
		t.Errorf("MappedConnections = %d, want 6", got)
	}
	if got := a.OutlierRatio(); math.Abs(got-1.0/7.0) > 1e-12 {
		t.Errorf("OutlierRatio = %g, want 1/7", got)
	}
	if got := a.AvgUtilization(); math.Abs(got-6.0/256.0) > 1e-12 {
		t.Errorf("AvgUtilization = %g, want 6/256", got)
	}
	if got := a.AvgPreference(); math.Abs(got-6.0/16.0) > 1e-12 {
		t.Errorf("AvgPreference = %g, want 6/16", got)
	}
	if h := a.SizeHistogram(); h[16] != 1 || len(h) != 1 {
		t.Errorf("SizeHistogram = %v", h)
	}
}

func TestAssignmentEmptyStats(t *testing.T) {
	a := &Assignment{}
	if a.OutlierRatio() != 0 || a.AvgUtilization() != 0 || a.AvgPreference() != 0 {
		t.Error("empty assignment stats not zero")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	cm := smallNet()
	mutations := map[string]func(a *Assignment){
		"wrong N":          func(a *Assignment) { a.N = 5 },
		"wrong total":      func(a *Assignment) { a.Total = 3 },
		"bad size":         func(a *Assignment) { a.Crossbars[0].Size = 0 },
		"oversize cluster": func(a *Assignment) { a.Crossbars[0].Size = 2 },
		"conn outside block": func(a *Assignment) {
			a.Crossbars[0].Conns[0] = graph.Edge{From: 3, To: 4}
		},
		"phantom conn": func(a *Assignment) {
			a.Crossbars[0].Conns[0] = graph.Edge{From: 2, To: 2}
		},
		"phantom synapse": func(a *Assignment) { a.Synapses[0] = graph.Edge{From: 5, To: 0} },
		"double cover": func(a *Assignment) {
			a.Synapses = append(a.Synapses, graph.Edge{From: 0, To: 1})
		},
		"missing coverage": func(a *Assignment) { a.Synapses = nil },
	}
	for name, mutate := range mutations {
		a := validAssignment(cm)
		mutate(a)
		if err := a.Validate(cm); err == nil {
			t.Errorf("%s: Validate accepted corrupt assignment", name)
		}
	}
}

func TestFanInOuts(t *testing.T) {
	cm := smallNet()
	a := validAssignment(cm)
	if err := a.Validate(cm); err != nil {
		t.Fatal(err)
	}
	f := a.FanInOuts()
	// Neurons 0,1,2 each drive and are fed by the one crossbar → 2 each.
	for _, n := range []int{0, 1, 2} {
		if f[n].Crossbar != 2 || f[n].Synapse != 0 {
			t.Errorf("neuron %d fan = %+v, want {2 0}", n, f[n])
		}
	}
	if f[3].Synapse != 1 || f[4].Synapse != 1 {
		t.Errorf("synapse fans = %+v %+v", f[3], f[4])
	}
	if f[5].Sum() != 0 {
		t.Errorf("isolated neuron has fan %+v", f[5])
	}
}

func TestFullCroCoversNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cm := graph.RandomSparse(150, 0.94, rng)
	lib := DefaultLibrary()
	a := FullCro(cm, lib)
	if err := a.Validate(cm); err != nil {
		t.Fatalf("FullCro invalid: %v", err)
	}
	if len(a.Synapses) != 0 {
		t.Fatalf("FullCro produced %d synapses, want 0", len(a.Synapses))
	}
	for _, c := range a.Crossbars {
		if c.Size != 64 {
			t.Fatalf("FullCro crossbar size %d, want 64", c.Size)
		}
	}
	// 150 neurons → 3 groups → at most 9 blocks.
	if len(a.Crossbars) > 9 {
		t.Fatalf("FullCro produced %d crossbars, want ≤ 9", len(a.Crossbars))
	}
	if a.MappedConnections() != cm.NNZ() {
		t.Fatalf("FullCro mapped %d of %d connections", a.MappedConnections(), cm.NNZ())
	}
}

func TestFullCroSkipsEmptyBlocks(t *testing.T) {
	cm := graph.NewConn(128) // two groups of 64
	cm.Set(0, 1)             // only block (0,0) is populated
	a := FullCro(cm, DefaultLibrary())
	if len(a.Crossbars) != 1 {
		t.Fatalf("FullCro kept %d crossbars, want 1", len(a.Crossbars))
	}
	if err := a.Validate(cm); err != nil {
		t.Fatal(err)
	}
}

func TestFullCroValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(200)
		cm := graph.RandomSparse(n, 0.8+0.19*rng.Float64(), rng)
		a := FullCro(cm, DefaultLibrary())
		return a.Validate(cm) == nil && len(a.Synapses) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDeviceModelDefaults(t *testing.T) {
	d := Default45nm()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Delay at the reference size is the reference delay.
	if got := d.CrossbarDelay(64); math.Abs(got-1.95) > 1e-12 {
		t.Errorf("CrossbarDelay(64) = %g, want 1.95", got)
	}
	// Delay scales quadratically: half size → quarter delay.
	if got := d.CrossbarDelay(32); math.Abs(got-1.95/4) > 1e-12 {
		t.Errorf("CrossbarDelay(32) = %g, want %g", got, 1.95/4)
	}
	// Areas are positive and monotone in size.
	if d.CrossbarArea(16) >= d.CrossbarArea(64) {
		t.Error("crossbar area not monotone in size")
	}
	if d.NeuronArea() <= 0 || d.SynapseArea() <= 0 {
		t.Error("non-positive cell areas")
	}
}

func TestDeviceModelValidateRejectsBadParams(t *testing.T) {
	d := Default45nm()
	d.MemristorPitch = 0
	if d.Validate() == nil {
		t.Error("zero pitch accepted")
	}
	d = Default45nm()
	d.WireRPerUm = math.Inf(1)
	if d.Validate() == nil {
		t.Error("infinite resistance accepted")
	}
}

func TestWireDelayQuadratic(t *testing.T) {
	d := Default45nm()
	d1, d2 := d.WireDelay(100), d.WireDelay(200)
	if math.Abs(d2-4*d1) > 1e-15 {
		t.Errorf("WireDelay not quadratic: %g vs 4×%g", d2, d1)
	}
	if d.WireDelay(0) != 0 {
		t.Error("WireDelay(0) != 0")
	}
	// A 100 µm wire at 45 nm is tens of femtoseconds-to-picoseconds scale,
	// far below a crossbar's ns delay.
	if d1 > 0.1 {
		t.Errorf("WireDelay(100µm) = %g ns, implausibly large", d1)
	}
}

func TestWireWeightMonotone(t *testing.T) {
	d := Default45nm()
	if d.WireWeight(d.CrossbarDelay(64)) <= d.WireWeight(d.CrossbarDelay(16)) {
		t.Error("wire weight not monotone in component delay")
	}
	if d.WireWeight(0) != 1 {
		t.Errorf("WireWeight(0) = %g, want 1", d.WireWeight(0))
	}
}

func TestDevicePanicsOnInvalidArgs(t *testing.T) {
	d := Default45nm()
	for name, f := range map[string]func(){
		"side":   func() { d.CrossbarSide(0) },
		"delay":  func() { d.CrossbarDelay(-1) },
		"wire":   func() { d.WireDelay(-5) },
		"weight": func() { d.WireWeight(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with invalid arg did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestLibraryEmpty(t *testing.T) {
	var l Library
	if !l.Empty() {
		t.Fatal("zero library not empty")
	}
	if DefaultLibrary().Empty() {
		t.Fatal("default library reported empty")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Min of empty library did not panic")
		}
	}()
	l.Min()
}

// fullCroReference is the FullCro that FullCro's single bucketed pass
// replaced — one column set and one scan of the row group per block pair —
// kept as the specification of the baseline's crossbars and their order.
func fullCroReference(cm *graph.Conn, lib Library) *Assignment {
	s := lib.Max()
	n := cm.N()
	groups := (n + s - 1) / s
	group := func(g int) []int {
		idx := []int{}
		for i := g * s; i < min((g+1)*s, n); i++ {
			idx = append(idx, i)
		}
		return idx
	}
	a := &Assignment{N: n, Total: cm.NNZ()}
	for gi := 0; gi < groups; gi++ {
		rows := group(gi)
		for gj := 0; gj < groups; gj++ {
			cols := group(gj)
			colSet := make(map[int]bool, len(cols))
			for _, c := range cols {
				colSet[c] = true
			}
			var conns []graph.Edge
			var buf []int
			for _, i := range rows {
				buf = cm.RowNeighbors(i, buf[:0])
				for _, j := range buf {
					if colSet[j] {
						conns = append(conns, graph.Edge{From: i, To: j})
					}
				}
			}
			if len(conns) > 0 {
				a.Crossbars = append(a.Crossbars, Crossbar{Size: s, Inputs: rows, Outputs: cols, Conns: conns})
			}
		}
	}
	return a
}

// TestFullCroMatchesReference: FullCro builds the reference's crossbars in
// the reference's order — so AvgUtilization, the automatic ISC threshold,
// keeps its bits — on the paper's testbenches, on random nets whose size
// is not a multiple of the largest crossbar, on a net with empty blocks,
// and on an empty one.
func TestFullCroMatchesReference(t *testing.T) {
	lib := DefaultLibrary()
	nets := map[string]*graph.Conn{"empty": graph.NewConn(100)}
	for i, tb := range hopfield.Testbenches() {
		cm, _, _ := tb.Build(1)
		nets[fmt.Sprintf("tb%d", i+1)] = cm
	}
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 63, 65, 150, 333, 1000} {
		if n%lib.Max() == 0 {
			t.Fatalf("n=%d is a multiple of %d", n, lib.Max())
		}
		nets[fmt.Sprintf("random%d", n)] = graph.RandomSparse(n, 0.9, rng)
	}
	holes := graph.NewConn(300) // five groups, three populated blocks
	holes.Set(0, 1)
	holes.Set(70, 250)
	holes.Set(299, 130)
	holes.Set(299, 131)
	nets["holes"] = holes
	for name, cm := range nets {
		got, want := FullCro(cm, lib), fullCroReference(cm, lib)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: FullCro differs from the reference", name)
		}
		if g, w := got.AvgUtilization(), want.AvgUtilization(); math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s: AvgUtilization = %v, the reference's %v", name, g, w)
		}
	}
	if len(FullCro(holes, lib).Crossbars) != 3 {
		t.Fatal("the holes net does not leave blocks empty")
	}
}
