package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
)

// Canonical request hashing: the cache key of a request is the SHA-256
// of its *normalized* form rendered deterministically, so two requests
// asking for the same analysis — axes permuted, duplicated, defaulted
// explicitly or left out — produce the same digest and share one cache
// entry. The rendering is versioned; bump the prefix when the response
// schema changes so stale entries can never be served across a deploy.

// v2: the canonical string gained ";model=" (multi-model zoo), so v1
// entries hash a request shape that no longer exists.
const hashVersion = "twocsd/v2"

func appendInts(b []byte, name string, vals []int) []byte {
	b = append(b, ';')
	b = append(b, name...)
	b = append(b, '=')
	for i, v := range vals {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return b
}

func (g GridSpec) appendCanonical(b []byte) []byte {
	b = appendInts(b, "h", g.Hs)
	b = appendInts(b, "sl", g.SLs)
	b = appendInts(b, "tp", g.TPs)
	b = append(b, ";b="...)
	b = strconv.AppendInt(b, int64(g.B), 10)
	b = append(b, ";flopbw="...)
	for i, r := range g.FlopVsBW {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, r, 'g', -1, 64)
	}
	b = append(b, ";model="...)
	b = append(b, g.Model...)
	return b
}

// cacheKey returns the canonical digest of a normalized study request.
func (r StudyRequest) cacheKey() string {
	b := []byte(hashVersion + "/study")
	b = r.GridSpec.appendCanonical(b)
	b = append(b, ";target="...)
	b = strconv.AppendFloat(b, r.TargetFraction, 'g', -1, 64)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// cacheKey returns the canonical digest of a normalized sweep request.
// Sweep responses are not cached (they stream), but the digest names
// the request in spans and logs.
func (r SweepRequest) cacheKey() string {
	b := []byte(hashVersion + "/sweep")
	b = r.GridSpec.appendCanonical(b)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
