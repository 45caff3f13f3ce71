package place_test

import (
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
	tb.Helper()
	a, err := apps.ByName(app)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := expt.DefaultConfig()
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
