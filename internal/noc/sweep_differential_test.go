package noc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wivfi/internal/platform"
	"wivfi/internal/topo"
)

// Differential tests for the up*/down* topological sweep: for every
// source, search with the sweep must leave exactly the heap search's
// dist bits, prevState and prevEdge, whether the sweep finishes or falls
// back to the heap.

// searchState is a copy of one source's search arrays.
type searchState struct {
	dist                []float64
	prevState, prevEdge []int
}

// runSearch runs search from src and copies its arrays out; fellBack
// reports whether the sweep re-ran the source on the heap.
func runSearch(g *graph, cost []float64, src int, sweep bool, scr *dijkstraScratch) (st searchState, fellBack bool) {
	before := heapFallbacks.Value()
	numStates := search(g, cost, src, sweep, scr)
	st.dist = append([]float64(nil), scr.dist[:numStates]...)
	st.prevState = append([]int(nil), scr.prevState[:numStates]...)
	st.prevEdge = append([]int(nil), scr.prevEdge[:numStates]...)
	return st, heapFallbacks.Value() != before
}

// sameSearch fails unless got and want agree on every state's dist bits,
// prevState and prevEdge.
func sameSearch(t *testing.T, label string, got, want searchState) {
	t.Helper()
	for s := range want.dist {
		if math.Float64bits(got.dist[s]) != math.Float64bits(want.dist[s]) ||
			got.prevState[s] != want.prevState[s] || got.prevEdge[s] != want.prevEdge[s] {
			t.Fatalf("%s: state %d = (%v, %d, %d), heap (%v, %d, %d)", label, s,
				got.dist[s], got.prevState[s], got.prevEdge[s], want.dist[s], want.prevState[s], want.prevEdge[s])
		}
	}
}

// congestedCosts returns rt's graph costs inflated as RefineRoutes
// inflates them: each entry's static cost over 1-min(rho, clip), with rho
// the load traffic puts on its link or wireless channel over rt's routes.
// It also reports whether some load passed the clip.
func congestedCosts(rt *RouteTable, traffic [][]float64, clip float64) ([]float64, bool) {
	g := rt.g
	load := make([]float64, len(g.to)+topo.NumChannels)
	for s := range traffic {
		for d, f := range traffic[s] {
			for _, e := range rt.route(s, d) {
				load[g.slot[e]] += f
			}
		}
	}
	cost := make([]float64, len(g.to))
	clipped := false
	for e := range cost {
		rho := load[g.slot[e]]
		if rho > clip {
			rho, clipped = clip, true
		}
		cost[e] = g.cost[e] / (1 - rho)
	}
	return cost, clipped
}

// TestSweepMatchesHeapPerSource compares the sweep with the heap search
// for every source of random fabrics under default, tie-heavy and
// congested costs. It insists on sources that finish the sweep and
// sources that fall back, and on congested cases below and past the clip.
func TestSweepMatchesHeapPerSource(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var finished, fellBack, clipped, unclipped int
	var heapScr, sweepScr dijkstraScratch
	for c := 0; c < 90; c++ {
		tp := randomFabric(t, rng)
		costs := DefaultLinkCosts()
		if rng.Intn(3) == 0 {
			costs = tieCosts
		}
		rt, err := BuildRoutes(tp, costs, UpDown)
		if err != nil {
			t.Fatal(err)
		}
		g := rt.g
		label := fmt.Sprintf("case %d (%dx%d %s)", c, tp.Chip.Rows, tp.Chip.Cols, tp.Name)
		cost := g.cost
		if c%2 == 1 {
			traffic := randomTraffic(rng, g.n, []float64{1e-3, 1e-2, 5e-2}[rng.Intn(3)])
			var over bool
			cost, over = congestedCosts(rt, traffic, []float64{0.5, 0.95}[rng.Intn(2)])
			if over {
				clipped++
			} else {
				unclipped++
			}
			label += " congested"
		}
		if !g.sweepable(cost) {
			t.Fatalf("%s: positive finite costs not sweepable", label)
		}
		for src := 0; src < g.n; src++ {
			want, _ := runSearch(g, cost, src, false, &heapScr)
			got, fell := runSearch(g, cost, src, true, &sweepScr)
			sameSearch(t, fmt.Sprintf("%s src %d", label, src), got, want)
			if fell {
				fellBack++
			} else {
				finished++
			}
		}
	}
	t.Logf("%d sources finished the sweep, %d fell back; %d congested cases past the clip, %d below",
		finished, fellBack, clipped, unclipped)
	if finished == 0 || fellBack == 0 {
		t.Fatalf("%d sources finished the sweep and %d fell back; want both", finished, fellBack)
	}
	if clipped == 0 || unclipped == 0 {
		t.Fatalf("%d congested cases hit the clip and %d did not; want both", clipped, unclipped)
	}
}

// fanGraph is the up*/down* graph of a five-switch fabric: switch 0 links
// to 1, 2 and 3, and each of those links to 4. From source 0 the phase-1
// states of 1, 2 and 3 each offer one candidate to switch 4.
func fanGraph(t *testing.T) *graph {
	t.Helper()
	wire := func(to int) topo.Link {
		return topo.Link{To: to, Type: topo.Wireline, LengthMM: 2.5, Channel: -1}
	}
	tp := &topo.Topology{
		Chip: platform.Chip{Rows: 1, Cols: 5, TileMM: 2.5},
		Adj: [][]topo.Link{
			{wire(1), wire(2), wire(3)},
			{wire(0), wire(4)},
			{wire(0), wire(4)},
			{wire(0), wire(4)},
			{wire(1), wire(2), wire(3)},
		},
		ChannelOf: map[int]int{},
		Name:      "fan",
	}
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	return newGraph(tp, DefaultLinkCosts(), UpDown)
}

// entry returns u's graph entry towards v.
func entry(t *testing.T, g *graph, u, v int) int {
	t.Helper()
	for e := g.off[u]; e < g.off[u+1]; e++ {
		if g.to[e] == v {
			return e
		}
	}
	t.Fatalf("no entry %d -> %d", u, v)
	return -1
}

// TestSweepFallsBackOnNearTie hand-builds three candidates for switch 4,
// about 4, 4+0.6e-12 and 4+1.2e-12 cycles, via switches 3, 2 and 1: each
// adjacent pair ties within the 1e-12 band, the outer pair does not. The
// heap pops 2, 3, 1 (by cost) and keeps the tie-break winner via 1; a
// sweep that took them in key order (1, 2, 3) without the fallback would
// end on the strictly cheaper route via 3. The sweep must abort, count
// one fallback and leave the heap's arrays.
func TestSweepFallsBackOnNearTie(t *testing.T) {
	g := fanGraph(t)
	n := g.n
	cost := make([]float64, len(g.to))
	for e := range cost {
		cost[e] = 1
	}
	cost[entry(t, g, 0, 1)] = 3
	cost[entry(t, g, 0, 2)] = 1
	cost[entry(t, g, 0, 3)] = 2
	cost[entry(t, g, 1, 4)] = 1 + 1.2e-12
	cost[entry(t, g, 2, 4)] = 3 + 0.6e-12
	cost[entry(t, g, 3, 4)] = 2
	if !g.sweepable(cost) {
		t.Fatal("positive finite costs not sweepable")
	}
	var scr dijkstraScratch
	want, _ := runSearch(g, cost, 0, false, &scr)
	if got := want.prevState[4+n]; got != 1+n {
		t.Fatalf("heap reaches switch 4 from state %d, want %d (via switch 1)", got, 1+n)
	}
	got, fell := runSearch(g, cost, 0, true, &scr)
	if !fell {
		t.Fatal("near-tie did not fall back to the heap")
	}
	sameSearch(t, "near tie", got, want)

	// Without the near-ties the same fan finishes the sweep.
	cost[entry(t, g, 1, 4)] = 1
	cost[entry(t, g, 2, 4)] = 3
	want, _ = runSearch(g, cost, 0, false, &scr)
	got, fell = runSearch(g, cost, 0, true, &scr)
	if fell {
		t.Fatal("exact ties fell back to the heap")
	}
	sameSearch(t, "exact ties", got, want)
}

// TestUnsweepableCostsTakeTheHeap: a cost array holding a zero, negative,
// sub-band, NaN or infinite cost is not sweepable, and a whole
// zero-cost BuildRoutes runs on the heap (no fallback counted) and still
// matches the reference routes.
func TestUnsweepableCostsTakeTheHeap(t *testing.T) {
	g := fanGraph(t)
	for _, bad := range []float64{0, -1, 1e-13, tieTol, math.NaN(), math.Inf(1), math.Inf(-1)} {
		cost := append([]float64(nil), g.cost...)
		cost[len(cost)-1] = bad
		if g.sweepable(cost) {
			t.Errorf("cost %v is sweepable", bad)
		}
	}
	if !g.sweepable(g.cost) {
		t.Error("default costs not sweepable")
	}
	tp := randomFabric(t, rand.New(rand.NewSource(5)))
	if newGraph(tp, DefaultLinkCosts(), Shortest).sweepable(g.cost) {
		t.Error("an unconstrained graph is sweepable")
	}
	before := heapFallbacks.Value()
	got, err := BuildRoutes(tp, LinkCosts{}, UpDown)
	if err != nil {
		t.Fatal(err)
	}
	if moved := heapFallbacks.Value() - before; moved != 0 {
		t.Fatalf("zero-cost BuildRoutes counted %d sweep fallbacks, want 0 (heap path)", moved)
	}
	want, err := refBuildRoutes(tp, LinkCosts{}, UpDown)
	if err != nil {
		t.Fatal(err)
	}
	sameRoutes(t, "zero costs", got, want)
}
