package noc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wivfi/internal/topo"
)

// Differential tests for the flat-graph route search: BuildRoutes,
// RefineRoutes and RoutedAvgHops must pick exactly the routes of the
// closure-based reference in reference_test.go, over randomized fabrics,
// WI placements, cost models (tie-heavy ones included) and traffic.

// sameRoutes fails unless got and want hold identical adjacency-index
// routes for every ordered pair.
func sameRoutes(t *testing.T, label string, got *RouteTable, want *refTable) {
	t.Helper()
	n := want.topo.NumSwitches()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			g, w := got.PathAdjIndices(s, d), want.paths[s][d]
			if (g == nil) != (w == nil) || len(g) != len(w) {
				t.Fatalf("%s: route %d -> %d = %v, reference %v", label, s, d, g, w)
			}
			for i := range w {
				if g[i] != w[i] {
					t.Fatalf("%s: route %d -> %d = %v, reference %v", label, s, d, g, w)
				}
			}
		}
	}
}

// randomRouting draws a fabric, a search mode and a cost model; a third of
// the cost models make every link cost one cycle, so ties decide routes.
func randomRouting(t *testing.T, rng *rand.Rand) (*topo.Topology, RoutingMode, LinkCosts) {
	tp := randomFabric(t, rng)
	mode := []RoutingMode{UpDown, Shortest}[rng.Intn(2)]
	costs := DefaultLinkCosts()
	if rng.Intn(3) == 0 {
		costs = tieCosts
	}
	return tp, mode, costs
}

func TestBuildRoutesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for c := 0; c < 300; c++ {
		tp, mode, costs := randomRouting(t, rng)
		label := fmt.Sprintf("case %d (%dx%d %s %v)", c, tp.Chip.Rows, tp.Chip.Cols, tp.Name, mode)
		want, err := refBuildRoutes(tp, costs, mode)
		if err != nil {
			t.Fatalf("%s: reference: %v", label, err)
		}
		got, err := BuildRoutes(tp, costs, mode)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sameRoutes(t, label, got, want)
	}
}

// TestRefineRoutesMatchesReference runs both refinements from the same
// static table for 1-3 iterations under both clips. Traffic scales span
// light load to overload, and the test insists that some cases drive a
// link or channel past the clip on the static routes.
func TestRefineRoutesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	nm := defaultNM()
	const cases = 240
	clipped, unclipped := 0, 0
	for c := 0; c < cases; c++ {
		tp, mode, costs := randomRouting(t, rng)
		iterations := 1 + rng.Intn(3)
		maxUtil := []float64{0.5, 0.95}[rng.Intn(2)]
		traffic := randomTraffic(rng, tp.NumSwitches(), []float64{1e-3, 1e-2, 5e-2}[rng.Intn(3)])
		label := fmt.Sprintf("case %d (%dx%d %s %v, %d iterations, clip %v)",
			c, tp.Chip.Rows, tp.Chip.Cols, tp.Name, mode, iterations, maxUtil)
		refStatic, err := refBuildRoutes(tp, costs, mode)
		if err != nil {
			t.Fatalf("%s: reference: %v", label, err)
		}
		static, err := BuildRoutes(tp, costs, mode)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		load, err := Analytic(static, traffic, nm, AnalyticConfig{PacketFlits: 1, MaxUtilization: maxUtil})
		if err != nil {
			t.Fatal(err)
		}
		if load.MaxLinkUtilization > maxUtil {
			clipped++
		} else {
			unclipped++
		}
		want, err := refRefineRoutes(refStatic, traffic, iterations, maxUtil)
		if err != nil {
			t.Fatalf("%s: reference: %v", label, err)
		}
		got, err := RefineRoutes(static, traffic, iterations, maxUtil)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sameRoutes(t, label, got, want)
	}
	t.Logf("%d of %d cases hit the utilization clip", clipped, cases)
	if clipped == 0 || unclipped == 0 {
		t.Fatalf("%d cases hit the utilization clip and %d did not; want both", clipped, unclipped)
	}
}

// TestRoutedAvgHopsMatchesReference compares the path-free scorer with the
// reference table's AvgHops, which shares no search code with it.
func TestRoutedAvgHopsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for c := 0; c < 300; c++ {
		tp, mode, costs := randomRouting(t, rng)
		var traffic [][]float64
		if rng.Intn(5) > 0 {
			traffic = randomTraffic(rng, tp.NumSwitches(), 1)
		}
		rt, err := refBuildRoutes(tp, costs, mode)
		if err != nil {
			t.Fatal(err)
		}
		want := rt.AvgHops(traffic)
		got, err := RoutedAvgHops(tp, costs, mode, traffic)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("case %d (%dx%d %s %v): RoutedAvgHops = %v, reference table says %v",
				c, tp.Chip.Rows, tp.Chip.Cols, tp.Name, mode, got, want)
		}
	}
}

// TestRoutingRejectsBadTraffic: every traffic-reading routing kernel
// rejects a malformed matrix with Analytic's error instead of panicking or
// folding a NaN, infinite or negative rate into link costs.
func TestRoutingRejectsBadTraffic(t *testing.T) {
	rt := winocRT(t, UpDown)
	n := rt.topo.NumSwitches()
	withEntry := func(s, d int, v float64) [][]float64 {
		m := zeroTraffic(n)
		m[s][d] = v
		return m
	}
	ragged := zeroTraffic(n)
	ragged[5] = ragged[5][:n-1]
	for _, tc := range []struct {
		name    string
		traffic [][]float64
	}{
		{"1x1", [][]float64{{0}}},
		{"no rows", [][]float64{}},
		{"ragged", ragged},
		{"NaN", withEntry(0, 1, math.NaN())},
		{"negative", withEntry(2, 3, -0.1)},
		{"+Inf", withEntry(4, 5, math.Inf(1))},
		{"-Inf", withEntry(6, 7, math.Inf(-1))},
	} {
		call := func(name string, f func() error) string {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s: %s panicked: %v", tc.name, name, p)
				}
			}()
			err := f()
			if err == nil {
				t.Errorf("%s: %s accepted the traffic", tc.name, name)
				return ""
			}
			return err.Error()
		}
		want := call("Analytic", func() error {
			_, err := Analytic(rt, tc.traffic, defaultNM(), DefaultAnalyticConfig())
			return err
		})
		refine := call("RefineRoutes", func() error {
			_, err := RefineRoutes(rt, tc.traffic, 2, 0.95)
			return err
		})
		hops := call("RoutedAvgHops", func() error {
			_, err := RoutedAvgHops(rt.topo, DefaultLinkCosts(), UpDown, tc.traffic)
			return err
		})
		if refine != want || hops != want {
			t.Errorf("%s: RefineRoutes says %q and RoutedAvgHops %q, Analytic %q", tc.name, refine, hops, want)
		}
	}
	if _, err := RefineRoutes(rt, nil, 2, 0.95); err == nil {
		t.Error("RefineRoutes accepted nil traffic")
	}
	if _, err := RoutedAvgHops(rt.topo, DefaultLinkCosts(), UpDown, nil); err != nil {
		t.Errorf("RoutedAvgHops rejected nil (uniform) traffic: %v", err)
	}
}

// saturatingTraffic returns seeded traffic for the 8x8 WiNoC table rt
// that loads some link or channel past clip on rt's routes.
func saturatingTraffic(t testing.TB, rt *RouteTable, clip float64) [][]float64 {
	t.Helper()
	traffic := randomTraffic(rand.New(rand.NewSource(1)), rt.topo.NumSwitches(), 2e-2)
	res, err := Analytic(rt, traffic, defaultNM(), AnalyticConfig{PacketFlits: 1, MaxUtilization: clip})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxLinkUtilization <= clip {
		t.Fatalf("peak load %v does not reach the %v clip", res.MaxLinkUtilization, clip)
	}
	return traffic
}

// TestRefineRoutesAllocsLinear: refinement searches on one flat graph,
// keeps its loads and costs in per-entry arrays and builds one route
// table, each source's routes carved from one slice. It allocates O(n)
// objects, not one per routed pair per iteration.
func TestRefineRoutesAllocsLinear(t *testing.T) {
	rt := winocRT(t, UpDown)
	n := rt.topo.NumSwitches()
	traffic := saturatingTraffic(t, rt, 0.95)
	var failed error
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := RefineRoutes(rt, traffic, 2, 0.95); err != nil {
			failed = err
		}
	})
	if failed != nil {
		t.Fatal(failed)
	}
	t.Logf("%v allocations on %d switches", allocs, n)
	if limit := float64(3 * n); allocs > limit {
		t.Fatalf("RefineRoutes allocated %v objects on %d switches, want at most %v (3 per switch)", allocs, n, limit)
	}
}

// TestUpDownRoutesAreCapped checks that the searched routes sharing one
// backing slice per source are capped at their length, in static and
// refined tables, so an append to one handed out by PathAdjIndices cannot
// overwrite its neighbour.
func TestUpDownRoutesAreCapped(t *testing.T) {
	static := winocRT(t, UpDown)
	refined, err := RefineRoutes(static, saturatingTraffic(t, static, 0.95), 2, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	n := static.topo.NumSwitches()
	for name, rt := range map[string]*RouteTable{"static": static, "refined": refined} {
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				p := rt.PathAdjIndices(s, d)
				if s == d {
					if p != nil {
						t.Fatalf("%s route %d -> %d = %v, want nil", name, s, d, p)
					}
					continue
				}
				if len(p) == 0 || cap(p) != len(p) {
					t.Fatalf("%s route %d -> %d has len %d cap %d, want a capped non-empty route", name, s, d, len(p), cap(p))
				}
			}
		}
		next := append([]int(nil), rt.PathAdjIndices(0, 2)...)
		_ = append(rt.PathAdjIndices(0, 1), -1)
		if got := rt.PathAdjIndices(0, 2); fmt.Sprint(got) != fmt.Sprint(next) {
			t.Fatalf("%s: appending to route 0 -> 1 changed route 0 -> 2 from %v to %v", name, next, got)
		}
	}
}

// BenchmarkRefineRoutes is one congestion-aware refinement as a WiNoC
// phase runs it: the 8x8 small-world WiNoC with 12 WIs, up*/down*, two
// iterations and the 0.95 clip, under seeded traffic that saturates some
// links on the static routes.
func BenchmarkRefineRoutes(b *testing.B) {
	rt := winocRT(b, UpDown)
	traffic := saturatingTraffic(b, rt, 0.95)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RefineRoutes(rt, traffic, 2, 0.95); err != nil {
			b.Fatal(err)
		}
	}
}
