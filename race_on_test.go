//go:build race

package repro_test

// raceEnabled reports a build with the race detector, under which sync.Pool
// drops a random share of what is put back, so allocation counts that rely
// on a pool do not hold.
const raceEnabled = true
