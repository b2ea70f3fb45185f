//go:build race

package exec

// raceEnabled reports whether the race detector is active; allocation-count
// guards are skipped under it (its instrumentation allocates).
const raceEnabled = true
