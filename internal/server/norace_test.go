//go:build !race

package server

// raceEnabled reports a race-instrumented build (see race_test.go).
const raceEnabled = false
