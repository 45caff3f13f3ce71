package qp

// Test-only exports for the external qp_test package, whose tests need the
// paper's design inputs (internal/vfi imports this package).
var (
	RefAnneal   = refAnneal
	RefKLRefine = refKLRefine
)
