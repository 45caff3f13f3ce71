package place

// Test-only exports for the external place_test package, whose tests need
// the paper's design inputs (internal/expt imports this package).
var (
	RefMinHopCount = refMinHopCount
	DiffResults    = diffResults
	DiffSwapDeltas = diffSwapDeltas
	RaceEnabled    = raceEnabled
)
