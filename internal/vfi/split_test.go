package vfi_test

import (
	"reflect"
	"testing"

	"wivfi/internal/apps"
	"wivfi/internal/expt"
	"wivfi/internal/obs"
	"wivfi/internal/vfi"
)

// TestDesignClusteredMatchesDesign: a margin-only variant of a design is
// the V/F steps on the design's own clustering. For all six apps and
// every margin of the sensitivity study, Design with that margin
// deep-equals DesignClustered on the paper plan's VFI1.Assign and
// ClusterCost, which runs no clustering.
func TestDesignClusteredMatchesDesign(t *testing.T) {
	if testing.Short() {
		t.Skip("designs every app at every margin")
	}
	cfg := expt.DefaultConfig()
	for _, name := range expt.AppOrder {
		app, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		_, prof, plan, _, err := expt.BuildDesign(cfg, app, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range expt.DefaultMargins {
			opts := cfg.VFI
			opts.FreqMargin = m
			want, err := vfi.Design(prof, opts)
			if err != nil {
				t.Fatal(err)
			}
			c0 := obs.CounterTotals()[vfi.MetricClusterCalls]
			got, err := vfi.DesignClustered(prof, plan.VFI1.Assign, plan.ClusterCost, opts)
			if err != nil {
				t.Fatal(err)
			}
			if c := obs.CounterTotals()[vfi.MetricClusterCalls] - c0; c != 0 {
				t.Errorf("%s margin %.2f: DesignClustered clustered %d times", name, m, c)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s margin %.2f: split design\n%+v\nwant\n%+v", name, m, got, want)
			}
		}
	}
}
