//go:build race

package sqlengine

// raceEnabled reports a build with the race detector, whose instrumentation
// allocates: allocation guards do not hold under it.
const raceEnabled = true
