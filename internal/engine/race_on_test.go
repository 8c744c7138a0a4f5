//go:build race

package engine

// raceEnabled reports that the race detector is on: allocation-count tests
// skip, since its instrumentation allocates.
const raceEnabled = true
