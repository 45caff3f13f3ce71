package qp_test

import (
	"fmt"
	"slices"
	"testing"

	"wivfi/internal/apps"
	"wivfi/internal/expt"
	"wivfi/internal/qp"
	"wivfi/internal/vfi"
)

// paperProblem returns the Eq. 1 instance the design flow solves for one
// paper benchmark on a rows x cols mesh with the default four islands.
func paperProblem(tb testing.TB, app string, rows, cols int) *qp.Problem {
	tb.Helper()
	a, err := apps.ByName(app)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := expt.DefaultConfig()
	cfg.Build.Chip.Rows, cfg.Build.Chip.Cols = rows, cols
	_, prof, _, _, err := expt.BuildDesign(cfg, a, nil, "")
	if err != nil {
		tb.Fatal(err)
	}
	prob, err := vfi.BuildProblem(prof, cfg.VFI)
	if err != nil {
		tb.Fatal(err)
	}
	return prob
}

// TestSolversMatchReferencePaperApps: on each of the six paper benchmarks
// at 8x8, 12x12 and 16x16, the gain-table Anneal, KLRefine and
// SolveRefined return exactly the assignments of the O(n)-delta reference
// solvers. The reference solvers cost seconds per 16x16 instance (KL
// scans ~n³/12 pairs a pass at O(n) each); the race detector, which this
// single-goroutine code gives nothing to find, stretches that to minutes,
// so a race build checks the 8x8 chips only.
func TestSolversMatchReferencePaperApps(t *testing.T) {
	opts := qp.DefaultAnnealOptions()
	dims := []int{8, 12, 16}
	if raceEnabled {
		dims = dims[:1]
	}
	for _, dim := range dims {
		for _, app := range expt.AppOrder {
			t.Run(fmt.Sprintf("%dx%d/%s", dim, dim, app), func(t *testing.T) {
				t.Parallel()
				p := paperProblem(t, app, dim, dim)
				want := qp.RefAnneal(p, opts)
				got, err := qp.Anneal(p, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got.Assign, want.Assign) {
					t.Fatalf("Anneal %v\nreference %v", got.Assign, want.Assign)
				}
				wantKL, _ := qp.RefKLRefine(p, want.Assign)
				gotKL, _, err := qp.KLRefine(p, want.Assign)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(gotKL, wantKL) {
					t.Fatalf("KLRefine %v\nreference %v", gotKL, wantKL)
				}
				gotSR, err := qp.SolveRefined(p, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(gotSR.Assign, wantKL) {
					t.Fatalf("SolveRefined %v\nreference %v", gotSR.Assign, wantKL)
				}
			})
		}
	}
}
