//go:build race

package server

// raceEnabled reports that the race detector is on: allocation-count tests
// skip, since its instrumentation allocates.
const raceEnabled = true
