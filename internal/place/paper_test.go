package place_test

import (
	"fmt"
	"testing"

	"wivfi/internal/apps"
	"wivfi/internal/expt"
	"wivfi/internal/noc"
	"wivfi/internal/place"
	"wivfi/internal/platform"
)

// paperInputs returns the min-hop placement inputs of one paper benchmark:
// the 8x8 chip, the VFI 2 island assignment, the profiled thread traffic
// and the placement options the pipeline uses.
func paperInputs(tb testing.TB, app string) (platform.Chip, []int, [][]float64, place.Options) {
	return paperInputsAt(tb, app, 8, 8)
}

// paperInputsAt is paperInputs on a rows x cols chip.
func paperInputsAt(tb testing.TB, app string, rows, cols int) (platform.Chip, []int, [][]float64, place.Options) {
	tb.Helper()
	a, err := apps.ByName(app)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := expt.DefaultConfig()
	cfg.Build.Chip.Rows, cfg.Build.Chip.Cols = rows, cols
	_, prof, plan, _, err := expt.BuildDesign(cfg, a, nil, "")
	if err != nil {
		tb.Fatal(err)
	}
	opts := cfg.Build.Place
	opts.SmallWorld = cfg.Build.SmallWorld
	opts.Costs = cfg.Build.LinkCosts
	opts.Routing = noc.UpDown
	return cfg.Build.Chip, plan.VFI2.Assign, prof.Traffic, opts
}

// TestMinHopCountMatchesReferencePaperApps: on each of the six paper
// benchmarks, MinHopCount reproduces the rebuild-per-proposal reference
// exactly — placement, hop count bits, fabric and every route.
func TestMinHopCountMatchesReferencePaperApps(t *testing.T) {
	for _, app := range expt.AppOrder {
		chip, assign, traffic, opts := paperInputs(t, app)
		want, err := place.RefMinHopCount(chip, assign, traffic, opts)
		if err != nil {
			t.Fatalf("%s: reference: %v", app, err)
		}
		got, err := place.MinHopCount(chip, assign, traffic, opts)
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		if diff := place.DiffResults(got, want); diff != "" {
			t.Errorf("%s: %s", app, diff)
		}
		// A design-cache hit realizes the stored placement without
		// annealing; it must rebuild the same WiNoC, hop-count bits
		// included, as the reference annealer's best.
		p := place.Placement{ThreadToTile: got.Mapping.ThreadToTile, WIs: got.WIPlacement}
		hit, err := place.Realize(chip, assign, traffic, p, opts)
		if err != nil {
			t.Fatalf("%s: realize: %v", app, err)
		}
		if diff := place.DiffResults(hit, want); diff != "" {
			t.Errorf("%s: realized placement: %s", app, diff)
		}
	}
}

// TestSwapDeltaMatchesReferencePaperApps: on each of the six paper
// benchmarks at 8x8, 12x12 and 16x16, the folded-traffic swap delta
// returns the reference's bits and the mapping annealer its mapping. A
// race build, which this single-goroutine code gives nothing to find,
// checks the 8x8 chips only.
func TestSwapDeltaMatchesReferencePaperApps(t *testing.T) {
	dims := []int{8, 12, 16}
	if place.RaceEnabled {
		dims = dims[:1]
	}
	for _, dim := range dims {
		for _, app := range expt.AppOrder {
			t.Run(fmt.Sprintf("%dx%d/%s", dim, dim, app), func(t *testing.T) {
				t.Parallel()
				chip, assign, traffic, opts := paperInputsAt(t, app, dim, dim)
				if diff := place.DiffSwapDeltas(chip, assign, traffic, opts.Seed); diff != "" {
					t.Fatal(diff)
				}
			})
		}
	}
}

// BenchmarkMapThreadsMinDistance is one thread-mapping anneal of the
// word-count benchmark's VFI 2 islands on a 12x12 chip: 200 sweeps of
// within-island swaps and the greedy polish.
func BenchmarkMapThreadsMinDistance(b *testing.B) {
	chip, assign, traffic, opts := paperInputsAt(b, "wc", 12, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := place.MapThreadsMinDistance(chip, assign, traffic, opts.Seed, opts.MappingSweeps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinHopCount is one min-hop placement (thread mapping, fabric,
// 60 WI proposals, final route table) of the word-count benchmark on the
// paper's 8x8 WiNoC.
func BenchmarkMinHopCount(b *testing.B) {
	chip, assign, traffic, opts := paperInputs(b, "wc")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := place.MinHopCount(chip, assign, traffic, opts); err != nil {
			b.Fatal(err)
		}
	}
}
