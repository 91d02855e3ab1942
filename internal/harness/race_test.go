//go:build race

package harness_test

// raceEnabled reports that the tests run under the race detector, where
// simulation is several times slower.
const raceEnabled = true
