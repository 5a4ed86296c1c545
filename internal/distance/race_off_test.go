//go:build !race

package distance

// raceEnabled reports whether the binary was built with the race
// detector; see race_on_test.go.
const raceEnabled = false
