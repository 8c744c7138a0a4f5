//go:build race

package seal_test

// raceEnabled reports whether the race detector is compiled in; allocation
// accounting is not meaningful under -race.
const raceEnabled = true
