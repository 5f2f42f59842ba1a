package autoncs_test

import (
	"math"
	"reflect"
	"testing"

	"repro"
)

// hashOf fails the test on error; most cases below want the happy path.
func hashOf(t *testing.T, net *autoncs.Network, cfg autoncs.Config) [32]byte {
	t.Helper()
	key, err := autoncs.CanonicalHash(net, cfg)
	if err != nil {
		t.Fatalf("CanonicalHash: %v", err)
	}
	return key
}

// TestCanonicalHashEquivalences: every spelling of the same compile hashes
// to the same key — the "repeat compile is a cache hit" half of the
// contract.
func TestCanonicalHashEquivalences(t *testing.T) {
	net := autoncs.RandomSparseNetwork(80, 0.9, 7)
	base := autoncs.DefaultConfig()
	want := hashOf(t, net, base)

	cases := []struct {
		name   string
		net    *autoncs.Network
		mutate func(*autoncs.Config)
	}{
		{"identical call", net, func(*autoncs.Config) {}},
		{"deep-copied network", net.Clone(), func(*autoncs.Config) {}},
		{"workers ignored", net, func(c *autoncs.Config) { c.Workers = 7 }},
		{"route workers ignored", net, func(c *autoncs.Config) { c.Route.Workers = 3 }},
		{"observer ignored", net, func(c *autoncs.Config) { c.Observer = &autoncs.MetricsObserver{} }},
		{"route observer ignored", net, func(c *autoncs.Config) { c.Route.Observer = &autoncs.MetricsObserver{} }},
		{"place observer ignored", net, func(c *autoncs.Config) { c.Place.Observer = &autoncs.MetricsObserver{} }},
		{"quantile zero = paper default", net, func(c *autoncs.Config) { c.SelectionQuantile = 0.75 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if got := hashOf(t, tc.net, cfg); got != want {
				t.Errorf("hash diverged from the base compile")
			}
		})
	}

	// Both sentinel spellings of "disabled" hash equal to each other but
	// not to auto (0).
	offA, offB := base, base
	offA.UtilizationThreshold = autoncs.DisabledThreshold
	offB.UtilizationThreshold = -3.5
	if hashOf(t, net, offA) != hashOf(t, net, offB) {
		t.Errorf("DisabledThreshold and another negative threshold hash differently")
	}
	if hashOf(t, net, offA) == want {
		t.Errorf("disabled threshold hashes equal to auto")
	}
	qA, qB := base, base
	qA.SelectionQuantile = -1
	qB.SelectionQuantile = -0.25
	if hashOf(t, net, qA) != hashOf(t, net, qB) {
		t.Errorf("two disabled-quantile spellings hash differently")
	}
}

// TestCanonicalHashDistinguishes: any semantic change to the input changes
// the key — the "never serve a wrong result" half of the contract.
func TestCanonicalHashDistinguishes(t *testing.T) {
	net := autoncs.RandomSparseNetwork(80, 0.9, 7)
	base := autoncs.DefaultConfig()
	want := hashOf(t, net, base)

	smallLib, err := autoncs.NewLibrary(16, 32)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*autoncs.Config)
	}{
		{"seed", func(c *autoncs.Config) { c.Seed = 2 }},
		{"skip physical", func(c *autoncs.Config) { c.SkipPhysical = true }},
		{"library", func(c *autoncs.Config) { c.Library = smallLib }},
		{"utilization threshold", func(c *autoncs.Config) { c.UtilizationThreshold = 0.5 }},
		{"selection quantile", func(c *autoncs.Config) { c.SelectionQuantile = 0.6 }},
		{"device pitch", func(c *autoncs.Config) { c.Device.MemristorPitch *= 2 }},
		{"device synapse delay", func(c *autoncs.Config) { c.Device.SynapseDelay = 0.4 }},
		{"place gamma", func(c *autoncs.Config) { c.Place.Gamma = 3 }},
		{"place max outer", func(c *autoncs.Config) { c.Place.MaxOuter++ }},
		{"route theta", func(c *autoncs.Config) { c.Route.Theta = 1.5 }},
		{"route capacity", func(c *autoncs.Config) { c.Route.Capacity++ }},
		{"route max relaxations", func(c *autoncs.Config) { c.Route.MaxRelaxations = 3 }},
		{"cost alpha", func(c *autoncs.Config) { c.Cost.Alpha = 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if hashOf(t, net, cfg) == want {
				t.Errorf("semantic config change did not change the hash")
			}
		})
	}

	t.Run("network bit flip", func(t *testing.T) {
		mutated := net.Clone()
		if mutated.Has(0, 1) {
			mutated.Clear(0, 1)
		} else {
			mutated.Set(0, 1)
		}
		if hashOf(t, mutated, base) == want {
			t.Errorf("connection flip did not change the hash")
		}
	})
	t.Run("network size", func(t *testing.T) {
		bigger := autoncs.NewNetwork(81)
		for _, e := range net.Edges() {
			bigger.Set(e.From, e.To)
		}
		if hashOf(t, bigger, base) == want {
			t.Errorf("padding a network with an isolated neuron did not change the hash")
		}
	})
}

// TestCanonicalHashCoversOptionFields perturbs every exported field of the
// placement, routing, device and cost parameters in turn: each must change
// the key, except the Workers and Observer knobs the determinism contract
// proves irrelevant. A field added to one of these structs that changes
// results but is never hashed would let the cache serve a stale compile.
func TestCanonicalHashCoversOptionFields(t *testing.T) {
	net := autoncs.RandomSparseNetwork(80, 0.9, 7)
	base := autoncs.DefaultConfig()
	want := hashOf(t, net, base)
	groups := []struct {
		name  string
		field func(*autoncs.Config) reflect.Value
	}{
		{"Place", func(c *autoncs.Config) reflect.Value { return reflect.ValueOf(&c.Place).Elem() }},
		{"Route", func(c *autoncs.Config) reflect.Value { return reflect.ValueOf(&c.Route).Elem() }},
		{"Device", func(c *autoncs.Config) reflect.Value { return reflect.ValueOf(&c.Device).Elem() }},
		{"Cost", func(c *autoncs.Config) reflect.Value { return reflect.ValueOf(&c.Cost).Elem() }},
	}
	for _, g := range groups {
		typ := g.field(&base).Type()
		for k := 0; k < typ.NumField(); k++ {
			f := typ.Field(k)
			if !f.IsExported() || f.Name == "Workers" || f.Name == "Observer" {
				continue
			}
			t.Run(g.name+"."+f.Name, func(t *testing.T) {
				cfg := base
				v := g.field(&cfg).Field(k)
				switch v.Kind() {
				case reflect.Float64:
					v.SetFloat(1.5*v.Float() + 0.5)
				case reflect.Int:
					v.SetInt(v.Int() + 1)
				default:
					t.Fatalf("no perturbation for a %s field", v.Kind())
				}
				if hashOf(t, net, cfg) == want {
					t.Errorf("changing %s.%s did not change the hash", g.name, f.Name)
				}
			})
		}
	}
}

// TestCanonicalHashValidates: an input Compile would reject never gets a
// key (a key must only ever exist for a compilable input).
func TestCanonicalHashValidates(t *testing.T) {
	net := autoncs.RandomSparseNetwork(40, 0.9, 1)
	good := autoncs.DefaultConfig()
	if _, err := autoncs.CanonicalHash(nil, good); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := autoncs.CanonicalHash(autoncs.NewNetwork(10), good); err == nil {
		t.Error("empty network accepted")
	}
	bad := good
	bad.UtilizationThreshold = math.NaN()
	if _, err := autoncs.CanonicalHash(net, bad); err == nil {
		t.Error("NaN threshold accepted")
	}
	bad = good
	bad.Workers = -1
	if _, err := autoncs.CanonicalHash(net, bad); err == nil {
		t.Error("negative workers accepted")
	}
	bad = good
	bad.SelectionQuantile = 1.5
	if _, err := autoncs.CanonicalHash(net, bad); err == nil {
		t.Error("quantile above 1 accepted")
	}
}

func TestCanonicalHashHex(t *testing.T) {
	net := autoncs.RandomSparseNetwork(40, 0.9, 1)
	cfg := autoncs.DefaultConfig()
	key := hashOf(t, net, cfg)
	hexKey, err := autoncs.CanonicalHashHex(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(hexKey) != 64 {
		t.Fatalf("hex key %q is not 64 chars", hexKey)
	}
	// Spot-check the first byte agrees with the binary key.
	if want := "0123456789abcdef"[key[0]>>4]; hexKey[0] != want {
		t.Errorf("hex key %q does not encode the binary key", hexKey)
	}
}

// FuzzCanonicalHash round-trips arbitrary generated inputs through the
// hash: hashing must be deterministic, invariant under deep-copying and
// result-irrelevant knobs, and sensitive to single-connection flips.
func FuzzCanonicalHash(f *testing.F) {
	f.Add(uint8(12), uint8(128), int64(1), int64(3), uint8(0))
	f.Add(uint8(60), uint8(250), int64(9), int64(7), uint8(40))
	f.Add(uint8(1), uint8(0), int64(-4), int64(0), uint8(200))
	f.Fuzz(func(t *testing.T, nRaw, sparsityRaw uint8, netSeed, cfgSeed int64, flipRaw uint8) {
		n := 2 + int(nRaw)%64
		sparsity := float64(sparsityRaw) / 256 // in [0, 1)
		net := autoncs.RandomSparseNetwork(n, sparsity, netSeed)
		if net.NNZ() == 0 {
			net.Set(0, 1) // CanonicalHash rejects edgeless networks
		}
		cfg := autoncs.DefaultConfig()
		cfg.Seed = cfgSeed

		a, err := autoncs.CanonicalHash(net, cfg)
		if err != nil {
			t.Fatalf("valid generated input rejected: %v", err)
		}
		if hashOf(t, net, cfg) != a || hashOf(t, net.Clone(), cfg) != a {
			t.Fatal("hash not deterministic across calls / clones")
		}

		cfg2 := cfg
		cfg2.Workers = 1 + int(flipRaw)%8
		cfg2.Observer = &autoncs.MetricsObserver{}
		if hashOf(t, net, cfg2) != a {
			t.Fatal("result-irrelevant knobs changed the hash")
		}

		i, j := int(flipRaw)%n, int(flipRaw/2)%n
		mutated := net.Clone()
		if mutated.Has(i, j) {
			mutated.Clear(i, j)
		} else {
			mutated.Set(i, j)
		}
		if mutated.NNZ() == 0 {
			t.Skip("flip emptied the network")
		}
		if hashOf(t, mutated, cfg) == a {
			t.Fatalf("flipping connection (%d,%d) did not change the hash", i, j)
		}
	})
}
