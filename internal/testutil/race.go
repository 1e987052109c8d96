//go:build race

package testutil

// RaceEnabled reports whether the race detector is compiled in. It
// changes allocation counts, so exact allocation gates skip under it.
const RaceEnabled = true
