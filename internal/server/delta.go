package server

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro"
	"repro/client"
	"repro/internal/cache"
)

// Delta serving: a ?base=<key> submission asks the daemon to recompile an
// edited network incrementally against the cached artifact of a previous
// compile. The artifact — the resumable portion of a Result, stored under
// client.ArtifactKey(resultKey) by every successful compile — is resolved
// and validated here, before the cache probe and admission, so the typed
// errors (missing artifact, config-vector mismatch) are deterministic: a
// bad delta request fails the same way whether or not its result happens
// to be cached. Delta results are cached under the delta key domain
// (client.DeltaKey), never under the plain CanonicalHash: a delta tracks
// the quality of the base it edited and is not bit-identical to a full
// compile of the same network, so the two must never share a cache entry.

// defaultDeltaMaxRatio is the edit-ratio cutoff when Options leaves it 0:
// an edit touching more than 10% of the base's connections dissolves
// enough of the previous compile that a fresh full compile is both
// cheaper to serve and better in quality.
const defaultDeltaMaxRatio = 0.1

// resolveDelta resolves a delta submission's base artifact and decides
// whether to run it as a delta. On success it either attaches the decoded
// artifact to the spec (delta accepted) or reverts the spec to a plain
// full compile (edit ratio over the cutoff — the silent fallback the API
// documents). A non-zero status is an HTTP error to answer the submission
// with; code is the stable machine-readable discriminator.
func (s *Server) resolveDelta(sp *compileSpec) (status int, code, msg string) {
	akey := cache.Key(client.ArtifactKey([32]byte(sp.baseKey)))
	payload, hit, _ := s.cache.GetDetail(akey, json.Valid)
	if !hit {
		s.dropStrandedBase(sp.baseKey)
		return http.StatusNotFound, client.CodeBaseArtifactMissing,
			fmt.Sprintf("no artifact for base %s (the base compile never ran on this daemon, or its artifact was evicted), recompile the base", sp.baseKey.Hex())
	}
	art, err := autoncs.DecodeArtifact(payload)
	if err != nil {
		// An artifact this daemon cannot read — typically one stored by an
		// older version before a format bump — is as good as missing: the
		// client recovers the same way, by recompiling the base.
		s.dropStrandedBase(sp.baseKey)
		return http.StatusNotFound, client.CodeBaseArtifactMissing,
			fmt.Sprintf("artifact for base %s is unusable, recompile the base: %v", sp.baseKey.Hex(), err)
	}
	if vec := autoncs.ConfigVectorHashHex(sp.cfg); art.ConfigVector != vec {
		return http.StatusConflict, client.CodeBaseConfigMismatch,
			fmt.Sprintf("base %s was compiled under config vector %s, this request's is %s (a delta must run under the base's configuration)",
				sp.baseKey.Hex(), art.ConfigVector, vec)
	}
	if art.Assignment.N != sp.net.N() {
		return http.StatusConflict, client.CodeBaseSizeMismatch,
			fmt.Sprintf("base %s has %d neurons, the edited network %d (resizing edits need a full compile)",
				sp.baseKey.Hex(), art.Assignment.N, sp.net.N())
	}

	baseNet := autoncs.BaseNetwork(art.Assignment)
	es, err := autoncs.DiffNetworks(baseNet, sp.net)
	if err != nil {
		return http.StatusInternalServerError, "",
			fmt.Sprintf("diffing against base %s: %v", sp.baseKey.Hex(), err)
	}
	if ratio := es.Ratio(baseNet.NNZ()); ratio > s.deltaMaxRatio {
		// Too much of the base would dissolve: run the submission as an
		// ordinary full compile under the plain content address. The
		// fallback is visible to the client — the response Key is the plain
		// address and BaseKey is absent — and counted in the metrics.
		key, err := autoncs.CanonicalHash(sp.net, sp.cfg)
		if err != nil {
			return http.StatusInternalServerError, "", fmt.Sprintf("rekeying delta fallback: %v", err)
		}
		s.deltaFallbacks.Add(1)
		s.log.Info("delta fallback to full compile", "base", sp.baseKey.Hex(),
			"edits", es.Edits(), "edit_ratio", ratio, "cutoff", s.deltaMaxRatio)
		sp.delta = false
		sp.baseKey = cache.Key{}
		sp.key = cache.Key(key)
		return 0, "", ""
	}
	sp.base = art
	return 0, "", ""
}

// dropStrandedBase drops the cached result of a base whose artifact is
// missing or unusable. The memory LRU can evict an artifact and keep its
// result, and a cached result is a hit that never recompiles, so without
// this the recompile a base_artifact_missing answer asks for would be
// served from the cache and the artifact would never come back. With the
// result gone, that recompile runs and stores both again. A delta racing
// its base's own completion can drop a result whose artifact is about to
// be stored; that costs one recompile, never a wrong answer.
func (s *Server) dropStrandedBase(base cache.Key) {
	if err := s.cache.Delete(base); err != nil {
		s.log.Warn("dropping stranded base result failed", "base", base.Hex(), "err", err)
	}
}

// putArtifact stores a finished compile's resumable artifact next to its
// result payload, under the artifact key domain. Every done compile —
// full, baseline, or delta — leaves one behind, which is what lets an
// editing session chain deltas: the next edit's base key is simply the
// previous response's Key. Failures only cost future deltas, never the
// job.
func (s *Server) putArtifact(job string, sp *compileSpec, res *autoncs.Result) {
	art, err := autoncs.EncodeArtifact(res, sp.cfg)
	if err != nil {
		s.log.Warn("artifact encoding failed", "job", job, "err", err)
		return
	}
	akey := cache.Key(client.ArtifactKey([32]byte(sp.key)))
	if err := s.cache.PutShared(akey, art); err != nil {
		s.log.Warn("artifact cache put failed", "job", job, "err", err)
	}
}
