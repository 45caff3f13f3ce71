package noc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wivfi/internal/energy"
	"wivfi/internal/platform"
	"wivfi/internal/topo"
)

// Differential tests for the path-free and map-free network kernels:
// RoutedAvgHops must return exactly BuildRoutes(...).AvgHops(...), and
// Analytic must match the map-keyed link-load formulation it replaced,
// bit for bit, over randomized chips, fabrics, WI placements, cost models
// and traffic.

// diffDims are the even grid shapes (quadrant clusters need even
// dimensions) the randomized cases draw from, 4x4 up to the paper's 8x8.
var diffDims = [][2]int{{4, 4}, {4, 6}, {6, 4}, {6, 6}, {4, 8}, {8, 4}, {6, 8}, {8, 6}, {8, 8}}

// tieCosts makes every link cost exactly one cycle, so almost every
// destination is reached by several equal-cost routes and the search's
// tie-break decides which one is taken.
var tieCosts = LinkCosts{RouterCycles: 1}

// randomFabric returns a random quadrant-clustered small-world fabric with,
// three times in four, a random wireless overlay.
func randomFabric(t testing.TB, rng *rand.Rand) *topo.Topology {
	t.Helper()
	for {
		d := diffDims[rng.Intn(len(diffDims))]
		chip := platform.Chip{Rows: d[0], Cols: d[1], TileMM: 2.5}
		cfg := topo.DefaultSmallWorldConfig()
		cfg.Seed = rng.Int63()
		if rng.Intn(2) == 0 {
			cfg.KIntra, cfg.KInter = 2, 2
		}
		if rng.Intn(2) == 0 {
			cfg.InterTraffic = make([][]float64, 4)
			for a := range cfg.InterTraffic {
				cfg.InterTraffic[a] = make([]float64, 4)
				for b := range cfg.InterTraffic[a] {
					if a != b {
						cfg.InterTraffic[a][b] = float64(rng.Intn(4))
					}
				}
			}
		}
		tp, err := topo.SmallWorld(chip, cfg)
		if err != nil {
			continue // port caps too tight for this draw; try another
		}
		if rng.Intn(4) == 0 {
			return tp
		}
		quads := topo.Quadrants(chip)
		placement := make([][]int, len(quads))
		for q, tiles := range quads {
			for _, i := range rng.Perm(len(tiles))[:topo.WIsPerCluster] {
				placement[q] = append(placement[q], tiles[i])
			}
		}
		if err := topo.AddWireless(tp, placement); err != nil {
			t.Fatal(err)
		}
		return tp
	}
}

// randomTraffic returns an n×n matrix drawn from a few exact values with
// many zeros (whole zero rows included); scale sets its magnitude.
func randomTraffic(rng *rand.Rand, n int, scale float64) [][]float64 {
	levels := []float64{0, 0, 0, 0.25, 0.5, 1, 3}
	m := make([][]float64, n)
	for s := range m {
		m[s] = make([]float64, n)
		if rng.Intn(8) == 0 {
			continue
		}
		for d := range m[s] {
			if s != d {
				m[s][d] = scale * levels[rng.Intn(len(levels))]
			}
		}
	}
	return m
}

func TestRoutedAvgHopsMatchesRouteTable(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	modes := []RoutingMode{UpDown, Shortest}
	const cases = 600
	for c := 0; c < cases; c++ {
		tp := randomFabric(t, rng)
		n := tp.NumSwitches()
		mode := modes[rng.Intn(len(modes))]
		if rng.Intn(10) == 0 {
			tp = topo.Mesh(tp.Chip)
			mode = []RoutingMode{XY, UpDown, Shortest}[rng.Intn(3)]
		}
		costs := DefaultLinkCosts()
		if rng.Intn(2) == 0 {
			costs = tieCosts
		}
		var traffic [][]float64
		switch rng.Intn(10) {
		case 0: // nil: uniform all-pairs average
		case 1: // all zero: no weight at all
			traffic = randomTraffic(rng, n, 0)
		default:
			traffic = randomTraffic(rng, n, 1)
		}
		label := fmt.Sprintf("case %d (%dx%d %s %v)", c, tp.Chip.Rows, tp.Chip.Cols, tp.Name, mode)
		rt, err := BuildRoutes(tp, costs, mode)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := rt.AvgHops(traffic)
		got, err := RoutedAvgHops(tp, costs, mode, traffic)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: RoutedAvgHops = %v, route table says %v", label, got, want)
		}
	}
}

// TestRoutedAvgHopsErrorsMatchRouteTable: the path-free scorer rejects
// exactly what BuildRoutes rejects, with the same message.
func TestRoutedAvgHopsErrorsMatchRouteTable(t *testing.T) {
	chip := platform.Chip{Rows: 4, Cols: 4, TileMM: 2.5}
	disconnected := &topo.Topology{Chip: chip, Adj: make([][]topo.Link, chip.NumCores())}
	asymmetric := topo.Mesh(chip)
	asymmetric.Adj[0] = append(asymmetric.Adj[0], topo.Link{To: 5, Channel: -1, LengthMM: 1})
	for _, tc := range []struct {
		name string
		tp   *topo.Topology
		mode RoutingMode
	}{
		{"disconnected", disconnected, UpDown},
		{"asymmetric", asymmetric, Shortest},
		{"bad mode", topo.Mesh(chip), RoutingMode(9)},
	} {
		_, wantErr := BuildRoutes(tc.tp, DefaultLinkCosts(), tc.mode)
		_, gotErr := RoutedAvgHops(tc.tp, DefaultLinkCosts(), tc.mode, nil)
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: RoutedAvgHops error %v, BuildRoutes error %v", tc.name, gotErr, wantErr)
		}
	}
}

// analyticMapReference is Analytic with its wireline link loads keyed by a
// map, the formulation the per-node load slices replaced.
func analyticMapReference(rt *RouteTable, traffic [][]float64, nm energy.NetworkModel, cfg AnalyticConfig) AnalyticResult {
	n := rt.topo.NumSwitches()
	type linkKey struct{ from, ai int }
	linkLoad := map[linkKey]float64{}
	channelLoad := make([]float64, topo.NumChannels)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			f := traffic[s][d]
			if f == 0 || s == d {
				continue
			}
			cur := s
			for _, ai := range rt.PathAdjIndices(s, d) {
				l := rt.topo.Adj[cur][ai]
				if l.Type == topo.Wireless {
					channelLoad[l.Channel] += f
				} else {
					linkLoad[linkKey{cur, ai}] += f
				}
				cur = l.To
			}
		}
	}
	contention := func(load float64) float64 {
		rho := load
		if rho > cfg.MaxUtilization {
			rho = cfg.MaxUtilization
		}
		return 1 / (1 - rho)
	}
	var totFlits, latNum, hopNum, pjNum, wirelessFlitHops, totalFlitHops float64
	maxUtil := 0.0
	for _, cl := range channelLoad {
		if cl > maxUtil {
			maxUtil = cl
		}
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			f := traffic[s][d]
			if f == 0 || s == d {
				continue
			}
			var lat, pj float64
			cur := s
			hops := 0
			for _, ai := range rt.PathAdjIndices(s, d) {
				l := rt.topo.Adj[cur][ai]
				base := rt.costs.baseLatency(l)
				if l.Type == topo.Wireless {
					lat += base * contention(channelLoad[l.Channel])
					pj += nm.WirelessHopPJ()
					wirelessFlitHops += f
				} else {
					load := linkLoad[linkKey{cur, ai}]
					if load > maxUtil {
						maxUtil = load
					}
					lat += base * contention(load)
					pj += nm.WirelineHopPJ(l.LengthMM)
				}
				totalFlitHops += f
				hops++
				cur = l.To
			}
			pj += nm.SwitchPJPerFlitPort
			lat += cfg.PacketFlits - 1
			totFlits += f
			latNum += f * lat
			hopNum += f * float64(hops)
			pjNum += f * pj
		}
	}
	if totFlits == 0 {
		return AnalyticResult{}
	}
	res := AnalyticResult{
		AvgLatencyCycles:   latNum / totFlits,
		AvgHops:            hopNum / totFlits,
		EnergyPJPerFlit:    pjNum / totFlits,
		MaxLinkUtilization: maxUtil,
	}
	if totalFlitHops > 0 {
		res.WirelessFraction = wirelessFlitHops / totalFlitHops
	}
	res.NetworkEDP = res.EnergyPJPerFlit * res.AvgLatencyCycles
	return res
}

func sameAnalytic(a, b AnalyticResult) bool {
	return math.Float64bits(a.AvgLatencyCycles) == math.Float64bits(b.AvgLatencyCycles) &&
		math.Float64bits(a.AvgHops) == math.Float64bits(b.AvgHops) &&
		math.Float64bits(a.EnergyPJPerFlit) == math.Float64bits(b.EnergyPJPerFlit) &&
		math.Float64bits(a.WirelessFraction) == math.Float64bits(b.WirelessFraction) &&
		math.Float64bits(a.MaxLinkUtilization) == math.Float64bits(b.MaxLinkUtilization) &&
		math.Float64bits(a.NetworkEDP) == math.Float64bits(b.NetworkEDP)
}

func TestAnalyticMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nm := defaultNM()
	cfg := DefaultAnalyticConfig()
	for c := 0; c < 200; c++ {
		tp := randomFabric(t, rng)
		mode := UpDown
		if c%10 == 0 {
			tp, mode = topo.Mesh(tp.Chip), XY
		}
		rt, err := BuildRoutes(tp, DefaultLinkCosts(), mode)
		if err != nil {
			t.Fatal(err)
		}
		// light to overloaded: the heaviest draws saturate links and hit
		// the utilization clip
		traffic := randomTraffic(rng, tp.NumSwitches(), []float64{0, 1e-3, 5e-3, 5e-2}[rng.Intn(4)])
		if c%3 == 0 {
			if rt, err = RefineRoutes(rt, traffic, 2, cfg.MaxUtilization); err != nil {
				t.Fatal(err)
			}
		}
		want := analyticMapReference(rt, traffic, nm, cfg)
		got, err := Analytic(rt, traffic, nm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnalytic(got, want) {
			t.Fatalf("case %d (%dx%d %s): Analytic = %+v, map reference = %+v",
				c, tp.Chip.Rows, tp.Chip.Cols, tp.Name, got, want)
		}
	}
}

// TestAnalyticAllocsConstant: link loads live in per-node slices carved
// from one array, so an Analytic call on the 8x8 WiNoC allocates a fixed
// handful of objects however many links the traffic loads (a map keyed
// by link grew its buckets with the loaded-link count).
func TestAnalyticAllocsConstant(t *testing.T) {
	rt := winocRT(t, UpDown)
	n := rt.topo.NumSwitches()
	traffic := make([][]float64, n)
	for s := range traffic {
		traffic[s] = make([]float64, n)
		for d := range traffic[s] {
			if s != d {
				traffic[s][d] = 1e-4
			}
		}
	}
	nm := defaultNM()
	cfg := DefaultAnalyticConfig()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Analytic(rt, traffic, nm, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("Analytic allocated %v objects per call on the %d-switch WiNoC, want at most 4", allocs, n)
	}
}

// TestRoutedAvgHopsAllocsLinear: scoring a fabric path-free allocates
// search scratch and up*/down* directions, O(n) objects, never one path
// per routed pair as a route table does.
func TestRoutedAvgHopsAllocsLinear(t *testing.T) {
	rt := winocRT(t, UpDown)
	tp := rt.topo
	n := tp.NumSwitches()
	traffic := randomTraffic(rand.New(rand.NewSource(1)), n, 1)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := RoutedAvgHops(tp, DefaultLinkCosts(), UpDown, traffic); err != nil {
			t.Fatal(err)
		}
	})
	if pairs := float64(n * (n - 1)); allocs > 2*float64(n) || allocs >= pairs {
		t.Fatalf("RoutedAvgHops allocated %v objects on %d switches, want at most %d", allocs, n, 2*n)
	}
}
