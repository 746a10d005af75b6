//go:build race

package provider

// raceEnabled reports a build with the race detector, which changes what
// allocates, so allocation guards do not hold under it.
const raceEnabled = true
