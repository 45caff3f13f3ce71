package noc

import (
	"math"
	"testing"

	"wivfi/internal/platform"
	"wivfi/internal/topo"
)

func meshRT(t testing.TB, mode RoutingMode) *RouteTable {
	t.Helper()
	rt, err := BuildRoutes(topo.Mesh(platform.DefaultChip()), DefaultLinkCosts(), mode)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func winocRT(t testing.TB, mode RoutingMode) *RouteTable {
	t.Helper()
	chip := platform.DefaultChip()
	tp, err := topo.SmallWorld(chip, topo.DefaultSmallWorldConfig())
	if err != nil {
		t.Fatal(err)
	}
	placement := [][]int{
		{chip.ID(1, 1), chip.ID(1, 2), chip.ID(2, 1)},
		{chip.ID(1, 5), chip.ID(1, 6), chip.ID(2, 6)},
		{chip.ID(5, 1), chip.ID(6, 1), chip.ID(6, 2)},
		{chip.ID(5, 6), chip.ID(6, 6), chip.ID(6, 5)},
	}
	if err := topo.AddWireless(tp, placement); err != nil {
		t.Fatal(err)
	}
	rt, err := BuildRoutes(tp, DefaultLinkCosts(), mode)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestMeshShortestHopsMatchManhattan(t *testing.T) {
	rt := meshRT(t, Shortest)
	chip := platform.DefaultChip()
	for _, pair := range [][2]int{{0, 63}, {0, 7}, {5, 40}, {12, 12}, {33, 34}} {
		s, d := pair[0], pair[1]
		want := chip.ManhattanHops(s, d)
		if got := rt.Hops(s, d); got != want {
			t.Errorf("Hops(%d,%d) = %d, want %d", s, d, got, want)
		}
	}
}

func TestXYRoutesAreMinimalAndDimensionOrdered(t *testing.T) {
	rt := meshRT(t, XY)
	chip := platform.DefaultChip()
	for s := 0; s < 64; s += 7 {
		for d := 0; d < 64; d += 5 {
			if s == d {
				continue
			}
			if got := rt.Hops(s, d); got != chip.ManhattanHops(s, d) {
				t.Fatalf("XY Hops(%d,%d) = %d, want %d", s, d, got, chip.ManhattanHops(s, d))
			}
			// dimension order: all column moves precede row moves
			path := rt.Path(s, d)
			rowPhase := false
			for i := 1; i < len(path); i++ {
				pr, pc := chip.Coord(path[i-1])
				cr, cc := chip.Coord(path[i])
				if pr != cr { // row move
					rowPhase = true
				} else if pc != cc && rowPhase {
					t.Fatalf("XY route %d->%d moves in X after Y: %v", s, d, path)
				}
			}
		}
	}
}

func TestPathEndpoints(t *testing.T) {
	rt := winocRT(t, UpDown)
	for s := 0; s < 64; s += 9 {
		for d := 0; d < 64; d += 11 {
			path := rt.Path(s, d)
			if path[0] != s || path[len(path)-1] != d {
				t.Fatalf("Path(%d,%d) endpoints wrong: %v", s, d, path)
			}
			// no revisits
			seen := map[int]bool{}
			for _, v := range path {
				if seen[v] {
					t.Fatalf("Path(%d,%d) revisits %d: %v", s, d, v, path)
				}
				seen[v] = true
			}
			if len(rt.PathLinks(s, d)) != rt.Hops(s, d) {
				t.Fatalf("PathLinks/Hops mismatch for (%d,%d)", s, d)
			}
		}
	}
}

func TestUpDownNoUpAfterDown(t *testing.T) {
	rt := winocRT(t, UpDown)
	up := upDirectionsForTest(rt.topo)
	for s := 0; s < 64; s++ {
		for d := 0; d < 64; d++ {
			if s == d {
				continue
			}
			cur := s
			descended := false
			for _, ai := range rt.PathAdjIndices(s, d) {
				if up[cur][ai] {
					if descended {
						t.Fatalf("route %d->%d goes up after down", s, d)
					}
				} else {
					descended = true
				}
				cur = rt.topo.Adj[cur][ai].To
			}
		}
	}
}

// upDirectionsForTest re-derives the BFS up/down orientation with the
// preserved reference, independently of the search graph.
func upDirectionsForTest(t *topo.Topology) [][]bool {
	return refUpDirections(t)
}

// TestChannelDependencyAcyclic is the deadlock-freedom invariant: the
// channel (link) dependency graph induced by the route set must be acyclic
// for XY-on-mesh and UpDown-on-WiNoC.
func TestChannelDependencyAcyclic(t *testing.T) {
	check := func(name string, rt *RouteTable) {
		n := rt.topo.NumSwitches()
		// enumerate directed links
		type link struct{ from, ai int }
		id := map[link]int{}
		var links []link
		for u := 0; u < n; u++ {
			for ai := range rt.topo.Adj[u] {
				id[link{u, ai}] = len(links)
				links = append(links, link{u, ai})
			}
		}
		adj := make([][]int, len(links))
		edge := map[[2]int]bool{}
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s == d {
					continue
				}
				cur := s
				prev := -1
				for _, ai := range rt.PathAdjIndices(s, d) {
					curID := id[link{cur, ai}]
					if prev >= 0 && !edge[[2]int{prev, curID}] {
						edge[[2]int{prev, curID}] = true
						adj[prev] = append(adj[prev], curID)
					}
					prev = curID
					cur = rt.topo.Adj[cur][ai].To
				}
			}
		}
		// cycle detection via iterative DFS coloring
		color := make([]int, len(links)) // 0 white 1 gray 2 black
		var stack [][2]int
		for s := range adj {
			if color[s] != 0 {
				continue
			}
			stack = append(stack[:0], [2]int{s, 0})
			color[s] = 1
			for len(stack) > 0 {
				top := &stack[len(stack)-1]
				u, i := top[0], top[1]
				if i < len(adj[u]) {
					top[1]++
					v := adj[u][i]
					switch color[v] {
					case 0:
						color[v] = 1
						stack = append(stack, [2]int{v, 0})
					case 1:
						t.Fatalf("%s: channel dependency cycle through link %d", name, v)
					}
				} else {
					color[u] = 2
					stack = stack[:len(stack)-1]
				}
			}
		}
	}
	check("mesh/XY", meshRT(t, XY))
	check("winoc/UpDown", winocRT(t, UpDown))
}

func TestUpDownAtMostModeratelyLongerThanShortest(t *testing.T) {
	short := winocRT(t, Shortest)
	updown := winocRT(t, UpDown)
	var sumS, sumU float64
	for s := 0; s < 64; s++ {
		for d := 0; d < 64; d++ {
			if s == d {
				continue
			}
			cs := short.RouteCostCycles(s, d)
			cu := updown.RouteCostCycles(s, d)
			sumS += cs
			sumU += cu
			// the up*/down* constraint can only lengthen the cost-optimal
			// route, never shorten it
			if cu < cs-1e-9 {
				t.Fatalf("updown route (%d,%d) cost %v below unconstrained %v", s, d, cu, cs)
			}
		}
	}
	if sumU > sumS*1.5 {
		t.Errorf("updown avg cost %.2f more than 1.5x shortest %.2f", sumU/4032, sumS/4032)
	}
}

func TestWiNoCShortensLongRoutes(t *testing.T) {
	mesh := meshRT(t, Shortest)
	winoc := winocRT(t, Shortest)
	if got, want := winoc.AvgHops(nil), mesh.AvgHops(nil); got >= want {
		t.Errorf("WiNoC avg hops %.3f not below mesh %.3f", got, want)
	}
}

// TestBuildXYAllocsLinear pins the per-source backing slice of XY route
// building: one 16x16 build allocates O(n) times (a few per source), not
// once or more per ordered pair.
func TestBuildXYAllocsLinear(t *testing.T) {
	chip := platform.DefaultChip()
	chip.Rows, chip.Cols = 16, 16
	tp := topo.Mesh(chip)
	n := tp.NumSwitches()
	var failed error
	avg := testing.AllocsPerRun(3, func() {
		if _, err := BuildRoutes(tp, DefaultLinkCosts(), XY); err != nil {
			failed = err
		}
	})
	if failed != nil {
		t.Fatal(failed)
	}
	if limit := float64(4 * n); avg > limit {
		t.Errorf("16x16 XY build allocates %.0f times, want at most %.0f (4 per switch)", avg, limit)
	}
}

// TestXYRoutesAreCapped checks that routes sharing one backing slice are
// exactly Manhattan-long and capped at that length, so appending to one
// handed out by PathAdjIndices cannot overwrite its neighbour.
func TestXYRoutesAreCapped(t *testing.T) {
	rt := meshRT(t, XY)
	chip := platform.DefaultChip()
	n := chip.NumCores()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			p := rt.PathAdjIndices(s, d)
			if s == d {
				if p != nil {
					t.Fatalf("route %d -> %d = %v, want nil", s, d, p)
				}
				continue
			}
			if len(p) != chip.ManhattanHops(s, d) || cap(p) != len(p) {
				t.Fatalf("route %d -> %d has len %d cap %d, want both %d", s, d, len(p), cap(p), chip.ManhattanHops(s, d))
			}
		}
	}
}

func TestXYRequiresMesh(t *testing.T) {
	chip := platform.DefaultChip()
	tp, err := topo.SmallWorld(chip, topo.DefaultSmallWorldConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildRoutes(tp, DefaultLinkCosts(), XY); err == nil {
		t.Error("XY routing accepted a non-mesh topology")
	}
}

func TestPathEnergyUsesWirelessRate(t *testing.T) {
	rt := winocRT(t, Shortest)
	nmod := defaultNM()
	// find a pair whose route uses a wireless link
	foundWireless := false
	unit := zeroTraffic(64) // one flit on the pair under test
	for s := 0; s < 64 && !foundWireless; s++ {
		for d := 0; d < 64; d++ {
			if s == d {
				continue
			}
			links := rt.PathLinks(s, d)
			var manual float64
			for _, l := range links {
				if l.Type == topo.Wireless {
					manual += nmod.WirelessHopPJ()
					foundWireless = true
				} else {
					manual += nmod.WirelineHopPJ(l.LengthMM)
				}
			}
			manual += nmod.SwitchPJPerFlitPort
			unit[s][d] = 1
			if got := rt.RoutedEnergyPJ(unit, nmod); math.Abs(got-manual) > 1e-9 {
				t.Fatalf("route energy %d->%d = %v, want %v", s, d, got, manual)
			}
			unit[s][d] = 0
		}
	}
	if !foundWireless {
		t.Error("no route uses a wireless link; placement or routing is broken")
	}
	if got := pathEnergyPJ(rt, 5, 5, nmod); got != 0 {
		t.Errorf("self-route energy = %v, want 0", got)
	}
}

func TestAvgHopsWeighting(t *testing.T) {
	rt := meshRT(t, Shortest)
	n := rt.topo.NumSwitches()
	traffic := make([][]float64, n)
	for i := range traffic {
		traffic[i] = make([]float64, n)
	}
	traffic[0][63] = 5 // only corner-to-corner traffic
	if got := rt.AvgHops(traffic); got != 14 {
		t.Errorf("AvgHops = %v, want 14", got)
	}
	if got := rt.AvgHops(nil); got <= 0 {
		t.Errorf("uniform AvgHops = %v", got)
	}
	empty := make([][]float64, n)
	for i := range empty {
		empty[i] = make([]float64, n)
	}
	if got := rt.AvgHops(empty); got != 0 {
		t.Errorf("zero-traffic AvgHops = %v, want 0", got)
	}
}

func TestBuildRoutesDeterministic(t *testing.T) {
	a := winocRT(t, UpDown)
	b := winocRT(t, UpDown)
	for s := 0; s < 64; s++ {
		for d := 0; d < 64; d++ {
			pa, pb := a.PathAdjIndices(s, d), b.PathAdjIndices(s, d)
			if len(pa) != len(pb) {
				t.Fatalf("route (%d,%d) length differs", s, d)
			}
			for i := range pa {
				if pa[i] != pb[i] {
					t.Fatalf("route (%d,%d) differs at hop %d", s, d, i)
				}
			}
		}
	}
}

func TestRoutingModeString(t *testing.T) {
	if Shortest.String() != "shortest" || XY.String() != "xy" || UpDown.String() != "updown" {
		t.Error("RoutingMode String labels wrong")
	}
	if RoutingMode(9).String() == "" {
		t.Error("unknown mode should still render")
	}
}

func TestRefineRoutesShiftsLoadOffHotLinks(t *testing.T) {
	rt := winocRT(t, UpDown)
	n := rt.topo.NumSwitches()
	// heavy uniform traffic: static routes overload hubs
	traffic := make([][]float64, n)
	for i := range traffic {
		traffic[i] = make([]float64, n)
		for j := range traffic[i] {
			if i != j {
				traffic[i][j] = 0.12 / float64(n-1)
			}
		}
	}
	nm := defaultNM()
	cfg := DefaultAnalyticConfig()
	before, err := Analytic(rt, traffic, nm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := RefineRoutes(rt, traffic, 3, cfg.MaxUtilization)
	if err != nil {
		t.Fatal(err)
	}
	after, err := Analytic(refined, traffic, nm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if after.MaxLinkUtilization > before.MaxLinkUtilization+1e-9 {
		t.Errorf("refinement raised peak link load: %.3f -> %.3f",
			before.MaxLinkUtilization, after.MaxLinkUtilization)
	}
	if after.AvgLatencyCycles > before.AvgLatencyCycles*1.05 {
		t.Errorf("refinement raised latency: %.1f -> %.1f",
			before.AvgLatencyCycles, after.AvgLatencyCycles)
	}
	// refined routes must still respect the up*/down* constraint
	up := upDirectionsForTest(refined.topo)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			cur := s
			descended := false
			for _, ai := range refined.PathAdjIndices(s, d) {
				if up[cur][ai] {
					if descended {
						t.Fatalf("refined route %d->%d violates up*/down*", s, d)
					}
				} else {
					descended = true
				}
				cur = refined.topo.Adj[cur][ai].To
			}
			if cur != d {
				t.Fatalf("refined route %d->%d ends at %d", s, d, cur)
			}
		}
	}
}

func TestRefineRoutesXYUnchanged(t *testing.T) {
	rt := meshRT(t, XY)
	n := rt.topo.NumSwitches()
	traffic := make([][]float64, n)
	for i := range traffic {
		traffic[i] = make([]float64, n)
	}
	traffic[0][63] = 0.5
	refined, err := RefineRoutes(rt, traffic, 2, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if refined != rt {
		t.Error("XY table should be returned unchanged (oblivious routing)")
	}
}

func TestRefineRoutesRejectsBadUtil(t *testing.T) {
	rt := winocRT(t, UpDown)
	traffic := zeroTraffic(64)
	if _, err := RefineRoutes(rt, traffic, 1, 1.5); err == nil {
		t.Error("max utilization 1.5 accepted")
	}
	if _, err := RefineRoutes(rt, traffic, 1, math.NaN()); err == nil {
		t.Error("max utilization NaN accepted")
	}
}
