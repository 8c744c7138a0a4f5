//go:build race

package hss

// raceEnabled reports whether the race detector is compiled in; allocation
// accounting is not meaningful under -race.
const raceEnabled = true
