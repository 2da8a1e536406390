//go:build !race

package core

// raceEnabled reports whether the race detector instruments this build;
// its shadow state inflates allocation counts, so the tight pins loosen
// under it.
const raceEnabled = false
