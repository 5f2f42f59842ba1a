package autoncs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"

	"repro/internal/core"
)

// CanonicalHash returns the SHA-256 content address of a compile: a key
// that is equal for two (network, config) pairs exactly when the compiled
// Result is guaranteed bit-identical by the determinism contract, and
// different whenever any semantically meaningful input differs. It is the
// cache key of the compile service (cmd/autoncsd): a repeat compile of the
// same inputs can be answered from a content-addressed result store without
// re-running the flow.
//
// The hash covers, in a fixed canonical order:
//
//   - a format/version domain tag (bump it when the flow's semantics
//     change so stale on-disk caches cannot serve wrong results, and with
//     every artifact format bump so results and their artifacts retire
//     together: see artifactFormat),
//   - the connection matrix (size + row bitsets),
//   - the crossbar library sizes and every device-model parameter,
//   - the flow knobs after normalization (below),
//   - the placement, routing, and cost parameters,
//   - Seed and SkipPhysical.
//
// Normalization folds every spelling of the same semantics onto one
// encoding, so zero-vs-default and sentinel choices hash equal:
//
//   - SelectionQuantile 0 hashes as the paper's 0.75; every negative value
//     hashes as -1 (partial selection disabled).
//   - UtilizationThreshold keeps 0 as 0 (auto — deterministic given the
//     hashed network and library); every negative value (DisabledThreshold
//     included) hashes as -1.
//   - The multilevel knobs hash as their effective values (zero spellings
//     fold to the defaults); with Multilevel off they are inert and all
//     spellings hash as the defaults.
//   - Negative zero hashes as positive zero for every float knob.
//
// Excluded entirely are the knobs the determinism contract proves
// irrelevant to the result: Workers (flow- and route-level) and every
// Observer. A Config that fails Compile's validation fails here with the
// same error, so a key never exists for an input that cannot compile.
func CanonicalHash(net *Network, cfg Config) ([32]byte, error) {
	var key [32]byte
	if err := validateInput(net, cfg); err != nil {
		return key, err
	}
	h := sha256.New()
	io.WriteString(h, "autoncs-cache-key/v7\n")
	h.Write(net.AppendBinary(nil))
	writeConfigVector(h, cfg)
	h.Sum(key[:0])
	return key, nil
}

// ConfigVectorHash returns the SHA-256 digest of the configuration portion
// of the canonical cache key alone — the exact byte stream CanonicalHash
// feeds after the network, under its own domain tag. Two configs share a
// vector hash exactly when CanonicalHash would agree for every network, so
// the digest answers "same flow, different network?" — the compatibility
// check of the delta-recompile path: a cached compile artifact may seed a
// delta compile only when the new request's config vector matches the one
// the artifact was built under.
//
// The hash is a pure encoding with the same normalizations as CanonicalHash
// and no validation; hash configs that have passed (or will pass) compile
// validation.
func ConfigVectorHash(cfg Config) [32]byte {
	var key [32]byte
	h := sha256.New()
	io.WriteString(h, "autoncs-config-vector/v2\n")
	writeConfigVector(h, cfg)
	h.Sum(key[:0])
	return key
}

// ConfigVectorHashHex is ConfigVectorHash rendered as lowercase hex — the
// form stored inside compile artifacts.
func ConfigVectorHashHex(cfg Config) string {
	key := ConfigVectorHash(cfg)
	return hex.EncodeToString(key[:])
}

// writeConfigVector streams the normalized config fields into w in the
// canonical v4 field order. CanonicalHash and ConfigVectorHash share this
// encoding, so the two stay in lockstep by construction; changing anything
// here changes the cache-key domain and requires a version-tag bump in both.
func writeConfigVector(w io.Writer, cfg Config) {
	e := hashEncoder{w: w}

	sizes := cfg.Library.Sizes()
	e.uint(uint64(len(sizes)))
	for _, s := range sizes {
		e.uint(uint64(s))
	}

	d := cfg.Device
	e.f64(d.MemristorPitch)
	e.f64(d.CrossbarPeriphery)
	e.f64(d.NeuronSide)
	e.f64(d.SynapseSide)
	e.f64(d.CrossbarDelayAtRef)
	e.uint(uint64(d.RefSize))
	e.f64(d.SynapseDelay)
	e.f64(d.WireRPerUm)
	e.f64(d.WireCPerUm)

	e.f64(canonThreshold(cfg.UtilizationThreshold))
	e.f64(canonQuantile(cfg.SelectionQuantile))

	// Multilevel engine knobs. When the engine is off the knobs are inert,
	// so they fold to the canonical defaults — every flat-engine spelling
	// hashes equal; when it is on, the effective (defaulted) values hash.
	if cfg.Multilevel {
		e.uint(1)
		cutoff, ratio := cfg.MultilevelCutoff, cfg.CoarsenRatio
		if cutoff == 0 {
			cutoff = core.DefaultMultilevelCutoff
		}
		if ratio == 0 {
			ratio = core.DefaultCoarsenRatio
		}
		e.uint(uint64(cutoff))
		e.f64(ratio)
		e.uint(uint64(cfg.MultilevelLevels))
	} else {
		e.uint(0)
		e.uint(uint64(core.DefaultMultilevelCutoff))
		e.f64(core.DefaultCoarsenRatio)
		e.uint(0)
	}

	p := cfg.Place
	e.f64(p.Gamma)
	e.f64(p.Omega)
	e.f64(p.RouteReserve)
	e.f64(p.OverlapThreshold)
	e.uint(uint64(p.MaxOuter))
	e.uint(uint64(p.CGIterations))

	r := cfg.Route
	e.f64(r.Theta)
	e.uint(uint64(r.Capacity))
	e.uint(uint64(r.MaxRelaxations))

	e.f64(cfg.Cost.Alpha)
	e.f64(cfg.Cost.Beta)
	e.f64(cfg.Cost.Delta)

	e.uint(uint64(cfg.Seed))
	if cfg.SkipPhysical {
		e.uint(1)
	} else {
		e.uint(0)
	}
}

// CanonicalHashHex is CanonicalHash rendered as lowercase hex — the form
// the compile service uses in URLs and on-disk cache filenames.
func CanonicalHashHex(net *Network, cfg Config) (string, error) {
	key, err := CanonicalHash(net, cfg)
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(key[:]), nil
}

// canonThreshold folds every disabled spelling (any negative value) onto -1
// and keeps 0 (auto) and explicit positive thresholds as-is.
func canonThreshold(t float64) float64 {
	if t < 0 {
		return -1
	}
	return t
}

// canonQuantile folds 0 onto the paper's default 0.75 and every disabled
// spelling (any negative value) onto -1.
func canonQuantile(q float64) float64 {
	switch {
	case q == 0:
		return 0.75
	case q < 0:
		return -1
	}
	return q
}

// hashEncoder writes fixed-width little-endian scalars into the hash. Every
// value goes through exactly one of the two methods, so the byte stream is
// unambiguous given the fixed field order.
type hashEncoder struct {
	w   io.Writer
	buf [8]byte
}

func (e *hashEncoder) uint(v uint64) {
	binary.LittleEndian.PutUint64(e.buf[:], v)
	e.w.Write(e.buf[:])
}

func (e *hashEncoder) f64(v float64) {
	// v+0 normalizes -0.0 to +0.0 without touching any other value.
	e.uint(math.Float64bits(v + 0))
}
