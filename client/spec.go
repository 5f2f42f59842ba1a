package client

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro"
	"repro/internal/graph"
)

// Spec is a materialized CompileRequest: the network the request
// describes, the full flow configuration, and the content address the
// service caches the result under. It is the single authority on how a
// wire request maps onto a compile: the server builds its job specs
// through it, so a client that calls Spec derives the same address the
// daemon caches under.
type Spec struct {
	// Net is the materialized network (parsed, generated, or built from a
	// testbench, exactly as the daemon would).
	Net *autoncs.Network
	// Config is the effective flow configuration, defaults filled.
	Config autoncs.Config
	// FullCro selects the maximum-size-crossbar baseline flow.
	FullCro bool
	// Delta reports that the request asks for an incremental recompile
	// against the compile whose result key is Base; Key is then the
	// delta-domain address (DeltaKey), never the plain CanonicalHash.
	Delta bool
	// Base is the base compile's result key, meaningful when Delta is set.
	Base [32]byte
	// Key is the compile's content address (autoncs.CanonicalHash, pushed
	// into the FullCro key domain when FullCro is set and into the delta
	// domain when Base is set).
	Key [32]byte
}

// KeyHex renders the content address as lowercase hex — the form used in
// URLs, the X-Autoncs-Key header, and on-disk cache filenames.
func (s *Spec) KeyHex() string { return hex.EncodeToString(s.Key[:]) }

// fullCroKeyDomain derives the disjoint key domain of the FullCro
// baseline flow: same inputs, different computation, so the two results
// must never share a cache entry.
const fullCroKeyDomain = "autoncs-fullcro/v1\n"

// deltaKeyDomain derives the key domain of delta recompiles. A delta's
// result is a function of the base compile it edited AND the edited
// request, and it is not bit-identical to a full compile of the same
// network — so it must never be cached under the plain CanonicalHash.
const deltaKeyDomain = "autoncs-delta/v1\n"

// artifactKeyDomain derives the cache address a compile's resumable
// artifact is stored under, from the compile's own result key. Artifacts
// share the content-addressed store with result payloads, so they need a
// domain of their own.
const artifactKeyDomain = "autoncs-artifact/v1\n"

// DeltaKey derives the content address of a delta recompile: the request's
// plain key pushed into the delta domain together with the base compile's
// result key. The daemon caches delta results under it.
func DeltaKey(base, key [32]byte) [32]byte {
	buf := make([]byte, 0, len(deltaKeyDomain)+64)
	buf = append(buf, deltaKeyDomain...)
	buf = append(buf, base[:]...)
	buf = append(buf, key[:]...)
	return sha256.Sum256(buf)
}

// ArtifactKey derives the cache address of the resumable artifact of the
// compile with the given result key.
func ArtifactKey(key [32]byte) [32]byte {
	return sha256.Sum256(append([]byte(artifactKeyDomain), key[:]...))
}

// Spec materializes the request. maxNeurons bounds the network size a
// caller is willing to build (the daemon passes its service limit); 0
// means unbounded. Every failure is a request error (the daemon answers it
// 400).
func (r CompileRequest) Spec(maxNeurons int) (*Spec, error) {
	sources := 0
	for _, set := range []bool{r.Net != "", r.Random != nil, r.Testbench != 0} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, fmt.Errorf("exactly one of net, random, testbench must be set (got %d)", sources)
	}

	seed := r.Seed
	if seed == 0 {
		seed = autoncs.DefaultConfig().Seed
	}

	var net *autoncs.Network
	switch {
	case r.Net != "":
		n, err := graph.Read(strings.NewReader(r.Net))
		if err != nil {
			return nil, fmt.Errorf("parsing net: %v", err)
		}
		net = n
	case r.Random != nil:
		rs := *r.Random
		if maxNeurons > 0 && (rs.N <= 0 || rs.N > maxNeurons) {
			return nil, fmt.Errorf("random.n %d out of range 1..%d", rs.N, maxNeurons)
		}
		if rs.N <= 0 {
			return nil, fmt.Errorf("random.n %d must be positive", rs.N)
		}
		if rs.Sparsity < 0 || rs.Sparsity > 1 {
			return nil, fmt.Errorf("random.sparsity %g out of [0,1]", rs.Sparsity)
		}
		net = autoncs.RandomSparseNetwork(rs.N, rs.Sparsity, rs.Seed)
	default:
		tbs := autoncs.Testbenches()
		if r.Testbench < 1 || r.Testbench > len(tbs) {
			return nil, fmt.Errorf("testbench %d out of range 1..%d", r.Testbench, len(tbs))
		}
		net = autoncs.BuildTestbench(tbs[r.Testbench-1], seed)
	}
	if maxNeurons > 0 && net.N() > maxNeurons {
		return nil, fmt.Errorf("network with %d neurons exceeds the %d-neuron service limit", net.N(), maxNeurons)
	}

	cfg := autoncs.DefaultConfig()
	cfg.Seed = seed
	cfg.SelectionQuantile = r.SelectionQuantile
	cfg.UtilizationThreshold = r.UtilizationThreshold
	cfg.SkipPhysical = r.SkipPhysical
	cfg.Multilevel = r.Multilevel
	cfg.MultilevelCutoff = r.MultilevelCutoff
	cfg.CoarsenRatio = r.CoarsenRatio
	cfg.MultilevelLevels = r.MultilevelLevels

	key, err := autoncs.CanonicalHash(net, cfg)
	if err != nil {
		return nil, err
	}
	if r.FullCro {
		key = sha256.Sum256(append([]byte(fullCroKeyDomain), key[:]...))
	}
	sp := &Spec{Net: net, Config: cfg, FullCro: r.FullCro, Key: key}
	if r.Base != "" {
		if r.FullCro {
			return nil, fmt.Errorf("base cannot combine with full_cro (the baseline flow has no incremental form)")
		}
		raw, err := hex.DecodeString(r.Base)
		if err != nil || len(raw) != 32 || r.Base != strings.ToLower(r.Base) {
			return nil, fmt.Errorf("base %q is not a 64-char lowercase-hex result key", r.Base)
		}
		sp.Delta = true
		copy(sp.Base[:], raw)
		sp.Key = DeltaKey(sp.Base, key)
	}
	return sp, nil
}
