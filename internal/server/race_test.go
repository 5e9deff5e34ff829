//go:build race

package server

// raceEnabled reports a race-instrumented build, in which sync.Pool drops
// a random quarter of the buffers put back, so a pooled path allocates at
// random and an allocation count pins nothing.
const raceEnabled = true
