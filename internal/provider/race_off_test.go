//go:build !race

package provider

// raceEnabled reports a build with the race detector; see race_on_test.go.
const raceEnabled = false
