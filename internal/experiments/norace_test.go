//go:build !race

package experiments

// raceEnabled reports whether the race detector is on. Tests that label
// queries by timing them are skipped under -race: its instrumentation slows
// the engine unevenly, so the measured labels no longer mean what they do.
const raceEnabled = false
