package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// canonVersion prefixes every canonical serialization. Bump it whenever
// the byte format changes so stale content-addressed cache entries can
// never alias a new result.
const canonVersion = "smartndr/workload/v1"

// Canonical returns the deterministic byte serialization of the spec —
// the form cache keys hash. Every result-determining field (name,
// distribution, sink count, die, cap range, seed, clusters) is covered
// in a fixed order. Floats render in hexadecimal floating-point, which
// is exact (no shortest-round-trip subtleties), platform-stable, and —
// unlike JSON — total: NaN and infinities serialize too, so no two
// distinct specs can ever collapse to the same bytes.
func (s Spec) Canonical() []byte {
	return []byte(fmt.Sprintf(
		"%s|spec|name=%q|dist=%d|sinks=%d|die_x=%x|die_y=%x|cap_min=%x|cap_max=%x|seed=%d|clusters=%d",
		canonVersion, s.Name, int(s.Dist), s.Sinks,
		s.DieX, s.DieY, s.CapMin, s.CapMax, s.Seed, s.Clusters))
}

// Hash returns the SHA-256 content address (hex) of the spec's
// canonical serialization.
func (s Spec) Hash() string {
	sum := sha256.Sum256(s.Canonical())
	return hex.EncodeToString(sum[:])
}
