package sim

import "reflect"

// RunEveryPhase is the reference for run: the same loop with every phase
// simulated, none reused.
var RunEveryPhase = everyPhaseRun

// RunDiffs lists where got differs from want, floats compared bit for bit.
func RunDiffs(got, want *RunResult) []string {
	return bitDiffs("RunResult", reflect.ValueOf(got), reflect.ValueOf(want), nil)
}
