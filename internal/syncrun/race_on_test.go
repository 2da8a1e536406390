//go:build race

package syncrun

// See race_off_test.go.
const raceEnabled = true
