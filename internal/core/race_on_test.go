//go:build race

package core

// See race_off_test.go.
const raceEnabled = true
