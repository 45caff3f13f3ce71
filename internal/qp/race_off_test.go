//go:build !race

package qp_test

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
