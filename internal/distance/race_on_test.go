//go:build race

package distance

// raceEnabled reports whether the binary was built with the race
// detector, whose instrumentation inserts heap allocations that make
// testing.AllocsPerRun meaningless.
const raceEnabled = true
