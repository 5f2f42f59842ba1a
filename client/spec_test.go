package client

import "testing"

func specReq(seed int64) CompileRequest {
	return CompileRequest{Random: &RandomSpec{N: 60, Sparsity: 0.9, Seed: 3}, Seed: seed, SkipPhysical: true}
}

// TestSpecKeyDeterminism: materializing the same request twice derives the
// same content address — the property that lets a client route by key and
// hit the daemon's cache for it.
func TestSpecKeyDeterminism(t *testing.T) {
	a, err := specReq(7).Spec(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := specReq(7).Spec(4096)
	if err != nil {
		t.Fatal(err)
	}
	if a.Key != b.Key {
		t.Fatal("same request derived different keys under different size limits")
	}
	if a.KeyHex() != b.KeyHex() || len(a.KeyHex()) != 64 {
		t.Fatalf("KeyHex mismatch or bad length: %q vs %q", a.KeyHex(), b.KeyHex())
	}
	c, err := specReq(8).Spec(0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Key == c.Key {
		t.Fatal("different seeds derived the same key")
	}
}

// TestSpecSeedZeroNormalizes: seed 0 and the default seed are the same
// compile, so they must share one cache key.
func TestSpecSeedZeroNormalizes(t *testing.T) {
	zero, err := specReq(0).Spec(0)
	if err != nil {
		t.Fatal(err)
	}
	one, err := specReq(1).Spec(0)
	if err != nil {
		t.Fatal(err)
	}
	if zero.Key != one.Key {
		t.Fatal("seed 0 did not normalize to the default seed's key")
	}
}

// TestSpecFullCroDisjointKeyDomain: the baseline flow computes a different
// result from the same inputs, so its key must differ.
func TestSpecFullCroDisjointKeyDomain(t *testing.T) {
	req := specReq(7)
	isc, err := req.Spec(0)
	if err != nil {
		t.Fatal(err)
	}
	req.FullCro = true
	cro, err := req.Spec(0)
	if err != nil {
		t.Fatal(err)
	}
	if isc.Key == cro.Key {
		t.Fatal("FullCro shares the ISC flow's cache key")
	}
	if !cro.FullCro || isc.FullCro {
		t.Fatal("FullCro flag not carried through the spec")
	}
}

// TestSpecValidation covers the request errors, including the difference
// between bounded (server) and unbounded materialization.
func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name       string
		req        CompileRequest
		maxNeurons int
		wantErr    bool
	}{
		{"no source", CompileRequest{}, 0, true},
		{"two sources", CompileRequest{Testbench: 1, Random: &RandomSpec{N: 10, Sparsity: 0.5}}, 0, true},
		{"bad net text", CompileRequest{Net: "not a net"}, 0, true},
		{"random n zero", CompileRequest{Random: &RandomSpec{N: 0, Sparsity: 0.5}}, 0, true},
		{"random n over limit", CompileRequest{Random: &RandomSpec{N: 200, Sparsity: 0.5}}, 100, true},
		{"random n over limit unbounded", CompileRequest{Random: &RandomSpec{N: 200, Sparsity: 0.5}}, 0, false},
		{"sparsity out of range", CompileRequest{Random: &RandomSpec{N: 10, Sparsity: 1.5}}, 0, true},
		{"testbench out of range", CompileRequest{Testbench: 99}, 0, true},
		{"valid testbench", CompileRequest{Testbench: 1}, 0, false},
	}
	for _, tc := range cases {
		_, err := tc.req.Spec(tc.maxNeurons)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err=%v, wantErr=%t", tc.name, err, tc.wantErr)
		}
	}
}
