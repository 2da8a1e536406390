//go:build !race

package syncrun

// raceEnabled reports whether the race detector instruments this build;
// its shadow state inflates allocation sizes, so byte pins skip under it.
const raceEnabled = false
