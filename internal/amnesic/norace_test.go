//go:build !race

package amnesic

// raceEnabled reports that the tests run under the race detector, where
// simulation is several times slower.
const raceEnabled = false
