package noc

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"wivfi/internal/platform"
	"wivfi/internal/topo"
)

// Differential tests for the flat edge-id route store: the dimension-order
// builder, Analytic and RoutedEnergyPJ must reproduce the
// adjacency-index reference tables of reference_test.go bit for bit, on
// XY meshes up to 16x16, random fabrics and refined WiNoC tables, under
// loads light enough to stay below the utilization clip and heavy enough
// to hit it.

// checkFlatAgainstReference compares the Analytic result, the traffic's
// routed energy and a spread of pairs' route energies of got with the
// reference table want, which must hold the same routes. It reports whether the
// load hit the clip and whether any flit crossed a wireless link.
func checkFlatAgainstReference(t *testing.T, label string, got *RouteTable, want *refTable, traffic [][]float64) (clipped, wireless bool) {
	t.Helper()
	nm := defaultNM()
	cfg := DefaultAnalyticConfig()
	sameRoutes(t, label, got, want)
	res, err := Analytic(got, traffic, nm, cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	ref, err := refAnalytic(want, traffic, nm, cfg)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	if !sameAnalytic(res, ref) {
		t.Fatalf("%s: Analytic = %+v, reference %+v", label, res, ref)
	}
	n := got.topo.NumSwitches()
	var wantPJ float64
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if f := traffic[s][d]; f != 0 && s != d {
				wantPJ += f * want.PathEnergyPJ(s, d, nm)
			}
		}
	}
	if g := got.RoutedEnergyPJ(traffic, nm); math.Float64bits(g) != math.Float64bits(wantPJ) {
		t.Fatalf("%s: RoutedEnergyPJ = %v, per-pair reference sum %v", label, g, wantPJ)
	}
	// One flit on one pair gives that pair's route energy; spot-check a
	// spread of pairs, the self-pair 0->0 included.
	unit := zeroTraffic(n)
	for k := 0; k < n*n; k += max(1, n*n/97) {
		s, d := k/n, k%n
		unit[s][d] = 1
		g, w := got.RoutedEnergyPJ(unit, nm), want.PathEnergyPJ(s, d, nm)
		unit[s][d] = 0
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: route energy %d->%d = %v, reference %v", label, s, d, g, w)
		}
	}
	return res.MaxLinkUtilization > cfg.MaxUtilization, res.WirelessFraction > 0
}

func TestFlatStoreMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	clipped, unclipped, wireless := 0, 0, 0
	tally := func(c, w bool) {
		if c {
			clipped++
		} else {
			unclipped++
		}
		if w {
			wireless++
		}
	}
	for _, dim := range []int{4, 6, 8, 12, 16} {
		tp := topo.Mesh(platform.Chip{Rows: dim, Cols: dim, TileMM: 2.5})
		got, err := BuildRoutes(tp, DefaultLinkCosts(), XY)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refBuildRoutes(tp, DefaultLinkCosts(), XY)
		if err != nil {
			t.Fatal(err)
		}
		for _, scale := range []float64{1e-4, 2e-2} {
			tally(checkFlatAgainstReference(t, fmt.Sprintf("%dx%d XY mesh, scale %v", dim, dim, scale),
				got, want, randomTraffic(rng, tp.NumSwitches(), scale)))
		}
	}
	for c := 0; c < 60; c++ {
		tp, mode, costs := randomRouting(t, rng)
		label := fmt.Sprintf("case %d (%dx%d %s %v)", c, tp.Chip.Rows, tp.Chip.Cols, tp.Name, mode)
		got, err := BuildRoutes(tp, costs, mode)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want, err := refBuildRoutes(tp, costs, mode)
		if err != nil {
			t.Fatalf("%s: reference: %v", label, err)
		}
		traffic := randomTraffic(rng, tp.NumSwitches(), []float64{1e-3, 5e-3, 5e-2}[rng.Intn(3)])
		tally(checkFlatAgainstReference(t, label, got, want, traffic))
	}
	for c := 0; c < 30; c++ {
		tp := randomFabric(t, rng)
		label := fmt.Sprintf("refined case %d (%dx%d %s)", c, tp.Chip.Rows, tp.Chip.Cols, tp.Name)
		traffic := randomTraffic(rng, tp.NumSwitches(), []float64{1e-3, 1e-2, 5e-2}[rng.Intn(3)])
		static, err := BuildRoutes(tp, DefaultLinkCosts(), UpDown)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		got, err := RefineRoutes(static, traffic, 2, 0.95)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		refStatic, err := refBuildRoutes(tp, DefaultLinkCosts(), UpDown)
		if err != nil {
			t.Fatalf("%s: reference: %v", label, err)
		}
		want, err := refRefineRoutes(refStatic, traffic, 2, 0.95)
		if err != nil {
			t.Fatalf("%s: reference: %v", label, err)
		}
		tally(checkFlatAgainstReference(t, label, got, want, traffic))
	}
	t.Logf("%d cases hit the utilization clip, %d did not, %d carried wireless flits", clipped, unclipped, wireless)
	if clipped == 0 || unclipped == 0 || wireless == 0 {
		t.Fatalf("want clipped, unclipped and wireless cases; got %d, %d and %d", clipped, unclipped, wireless)
	}
}

// TestRouteTableFootprint: a 16x16 XY table is one int32 per hop plus one
// int32 offset per pair (~3.1 MB) and a per-link graph; building it must
// allocate at most 4 MB in total. Per-pair slices of int adjacency
// indices took 7.5 MB.
func TestRouteTableFootprint(t *testing.T) {
	tp := topo.Mesh(platform.Chip{Rows: 16, Cols: 16, TileMM: 2.5})
	best := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rt, err := BuildRoutes(tp, DefaultLinkCosts(), XY)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(rt)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("16x16 XY table: %.2f MB allocated", float64(best)/(1<<20))
	if best > 4<<20 {
		t.Fatalf("building a 16x16 XY table allocated %d bytes, want at most %d", best, 4<<20)
	}
}
