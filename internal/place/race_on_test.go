//go:build race

package place

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
