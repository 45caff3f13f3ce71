package place

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"wivfi/internal/platform"
	"wivfi/internal/topo"
)

// diffResults reports the first way got differs from the reference result
// want: mapping, WI placement, the bits of the weighted hop count, switch
// traffic, the fabric's adjacency and every route. It returns "" when they
// are identical.
func diffResults(got, want Result) string {
	switch {
	case !reflect.DeepEqual(got.Mapping, want.Mapping):
		return "mapping differs"
	case !reflect.DeepEqual(got.WIPlacement, want.WIPlacement):
		return fmt.Sprintf("WI placement %v, reference %v", got.WIPlacement, want.WIPlacement)
	case math.Float64bits(got.AvgWeightedHops) != math.Float64bits(want.AvgWeightedHops):
		return fmt.Sprintf("AvgWeightedHops %v, reference %v", got.AvgWeightedHops, want.AvgWeightedHops)
	case !reflect.DeepEqual(got.SwitchTraffic, want.SwitchTraffic):
		return "switch traffic differs"
	case !reflect.DeepEqual(got.Topology, want.Topology):
		return "topology (adjacency, WIs or channels) differs"
	case got.Routes.Mode() != want.Routes.Mode() || got.Routes.Costs() != want.Routes.Costs():
		return "route table mode or costs differ"
	}
	n := want.Topology.NumSwitches()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if !reflect.DeepEqual(got.Routes.PathAdjIndices(s, d), want.Routes.PathAdjIndices(s, d)) {
				return fmt.Sprintf("route %d -> %d differs", s, d)
			}
		}
	}
	return ""
}

// diffDims are the even grid shapes the randomized cases draw from.
var diffDims = [][2]int{{4, 4}, {4, 6}, {6, 4}, {6, 6}, {4, 8}, {8, 4}, {6, 8}, {8, 6}, {8, 8}}

// randomAssign returns a random thread -> island assignment over n
// threads with 2-5 islands of at least minSize threads each.
func randomAssign(rng *rand.Rand, n, minSize int) []int {
	m := 2 + rng.Intn(4)
	if m*minSize > n {
		m = n / minSize
	}
	sizes := make([]int, m)
	for j := range sizes {
		sizes[j] = minSize
	}
	for k := m * minSize; k < n; k++ {
		sizes[rng.Intn(m)]++
	}
	assign := make([]int, 0, n)
	for j, s := range sizes {
		for k := 0; k < s; k++ {
			assign = append(assign, j)
		}
	}
	rng.Shuffle(n, func(a, b int) { assign[a], assign[b] = assign[b], assign[a] })
	return assign
}

// randomExactTraffic draws thread traffic from a few exact values, most of
// them zero, so swap deltas and hop-count ties are frequent.
func randomExactTraffic(rng *rand.Rand, n int) [][]float64 {
	levels := []float64{0, 0, 0, 0, 0.5, 1, 2}
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			if i != j {
				m[i][j] = levels[rng.Intn(len(levels))]
			}
		}
	}
	return m
}

// TestMinHopCountMatchesReferenceRandom: fabric-once, path-free WI
// annealing and table-driven mapping must reproduce the rebuild-per-
// proposal reference exactly, over random chips, island assignments,
// fabric seeds and traffic (the paper's apps: paper_test.go).
func TestMinHopCountMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	compared := 0
	for c := 0; c < 40; c++ {
		d := diffDims[rng.Intn(len(diffDims))]
		chip := platform.Chip{Rows: d[0], Cols: d[1], TileMM: 2.5}
		n := chip.NumCores()
		assign := quadrantAssign(chip)
		if c%2 == 1 {
			assign = randomAssign(rng, n, 4)
		}
		traffic := randomExactTraffic(rng, n)
		opts := DefaultOptions()
		opts.Seed = rng.Int63n(1000)
		opts.SmallWorld.Seed = rng.Int63()
		opts.MappingSweeps = 20
		opts.WISweeps = 40
		label := fmt.Sprintf("case %d (%dx%d, %d islands)", c, chip.Rows, chip.Cols, islands(assign))
		want, wantErr := refMinHopCount(chip, assign, traffic, opts)
		got, gotErr := MinHopCount(chip, assign, traffic, opts)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("%s: error %v, reference error %v", label, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if diff := diffResults(got, want); diff != "" {
			t.Fatalf("%s: %s", label, diff)
		}
		compared++
	}
	if compared < 30 {
		t.Fatalf("only %d of 40 random cases were feasible", compared)
	}
	// An island of two tiles cannot host its WIs: both must fail alike.
	chip := platform.Chip{Rows: 4, Cols: 4, TileMM: 2.5}
	assign := make([]int, chip.NumCores())
	assign[0], assign[5] = 1, 1
	traffic := randomExactTraffic(rng, chip.NumCores())
	_, wantErr := refMinHopCount(chip, assign, traffic, DefaultOptions())
	_, gotErr := MinHopCount(chip, assign, traffic, DefaultOptions())
	if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("two-tile island: error %v, reference error %v", gotErr, wantErr)
	}
}

// TestRealizeRebuildsBothStrategies: realizing a strategy's planned
// placement rebuilds exactly the strategy's result — mapping, WIs, hop
// count bits, fabric and every route — over random chips, islands and
// traffic.
func TestRealizeRebuildsBothStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	compared := 0
	strategies := []struct {
		name string
		plan func(platform.Chip, []int, [][]float64, Options) (Placement, error)
		run  func(platform.Chip, []int, [][]float64, Options) (Result, error)
	}{
		{"min-hop", func(chip platform.Chip, assign []int, traffic [][]float64, opts Options) (Placement, error) {
			m, err := MapThreadsMinDistance(chip, assign, traffic, opts.Seed, opts.MappingSweeps)
			if err != nil {
				return Placement{}, err
			}
			return PlanMinHopFrom(chip, assign, traffic, m, opts)
		}, MinHopCount},
		{"max-wireless", PlanMaxWireless, MaxWirelessUtil},
	}
	for c := 0; c < 12; c++ {
		d := diffDims[rng.Intn(len(diffDims))]
		chip := platform.Chip{Rows: d[0], Cols: d[1], TileMM: 2.5}
		assign := quadrantAssign(chip)
		if c%2 == 1 {
			assign = randomAssign(rng, chip.NumCores(), 4)
		}
		traffic := randomExactTraffic(rng, chip.NumCores())
		opts := DefaultOptions()
		opts.Seed = rng.Int63n(1000)
		opts.SmallWorld.Seed = rng.Int63()
		opts.MappingSweeps = 20
		opts.WISweeps = 20
		for _, st := range strategies {
			label := fmt.Sprintf("case %d %s (%dx%d)", c, st.name, chip.Rows, chip.Cols)
			want, err := st.run(chip, assign, traffic, opts)
			if err != nil {
				continue // infeasible fabric; the reference tests pin errors
			}
			p, err := st.plan(chip, assign, traffic, opts)
			if err != nil {
				t.Fatalf("%s: plan: %v", label, err)
			}
			got, err := Realize(chip, assign, traffic, p, opts)
			if err != nil {
				t.Fatalf("%s: realize: %v", label, err)
			}
			if diff := diffResults(got, want); diff != "" {
				t.Fatalf("%s: %s", label, diff)
			}
			compared++
		}
	}
	if compared < 16 {
		t.Fatalf("only %d of 24 cases were feasible", compared)
	}
}

// TestRealizeRejectsBadPlacements: a placement that is not a permutation,
// leaves a thread's region, or does not give every cluster WIsPerCluster
// distinct WIs in its own region is an error, never a panic or a WiNoC.
func TestRealizeRejectsBadPlacements(t *testing.T) {
	chip := platform.DefaultChip()
	assign := quadrantAssign(chip)
	traffic := randomExactTraffic(rand.New(rand.NewSource(5)), chip.NumCores())
	opts := DefaultOptions()
	good, err := PlanMaxWireless(chip, assign, traffic, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Realize(chip, assign, traffic, good, opts); err != nil {
		t.Fatalf("planned placement rejected: %v", err)
	}
	quads := topo.Quadrants(chip)
	inRegion := func(q int, skip []int) int { // a tile of region q hosting no WI in skip
		for _, tile := range quads[q] {
			if !slices.Contains(skip, tile) {
				return tile
			}
		}
		return -1
	}
	cases := []struct {
		name string
		edit func(p *Placement)
		want string
	}{
		{"short mapping", func(p *Placement) { p.ThreadToTile = p.ThreadToTile[:10] }, "maps 10 threads"},
		{"bad tile", func(p *Placement) { p.ThreadToTile[3] = 64 }, "bad tile 64"},
		{"duplicate tile", func(p *Placement) { p.ThreadToTile[1] = p.ThreadToTile[0] }, "hosts threads"},
		{"thread out of region", func(p *Placement) {
			// swap two threads of different islands: still a permutation
			a, b := 0, slices.Index(assign, 1)
			p.ThreadToTile[a], p.ThreadToTile[b] = p.ThreadToTile[b], p.ThreadToTile[a]
		}, "mapped to tile"},
		{"missing cluster", func(p *Placement) { p.WIs = p.WIs[:3] }, "WIs for 3 clusters"},
		{"short cluster", func(p *Placement) { p.WIs[2] = p.WIs[2][:2] }, "cluster 2 has 2 WIs"},
		{"WI out of region", func(p *Placement) { p.WIs[0][1] = inRegion(1, p.WIs[1]) }, "outside its region"},
		{"WI off chip", func(p *Placement) { p.WIs[0][1] = -1 }, "outside its region"},
		{"duplicate WI", func(p *Placement) { p.WIs[3][2] = p.WIs[3][0] }, "hosts two WIs"},
	}
	for _, c := range cases {
		p := Placement{ThreadToTile: slices.Clone(good.ThreadToTile), WIs: clonePlacement(good.WIs)}
		c.edit(&p)
		_, err := Realize(chip, assign, traffic, p, opts)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

func islands(assign []int) int {
	m := 0
	for _, c := range assign {
		m = max(m, c+1)
	}
	return m
}

// TestSwapDeltaMatchesReference: the folded-traffic swap delta returns
// the bits of the per-call column read it replaced, and the annealer
// built on it ends on the reference mapping, on random islands and
// traffic at 8x8, 12x12 and 16x16 (the paper's apps: paper_test.go). The
// reference annealer costs seconds per 16x16 instance, so that size runs
// one traffic draw, and a race build runs 8x8 only.
func TestSwapDeltaMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dims := []int{8, 12, 16}
	if raceEnabled {
		dims = dims[:1]
	}
	for _, dim := range dims {
		chip := platform.Chip{Rows: dim, Cols: dim, TileMM: 2.5}
		n := chip.NumCores()
		cases := [][][]float64{randomExactTraffic(rng, n), randTraffic(rng, n, 0.3)}
		if dim == 16 {
			cases = cases[:1]
		}
		for c, traffic := range cases {
			if diff := diffSwapDeltas(chip, randomAssign(rng, n, 4), traffic, rng.Int63n(1000)); diff != "" {
				t.Fatalf("%dx%d case %d: %s", dim, dim, c, diff)
			}
		}
	}
}

// TestAnnealPinnedMatchesReference covers the max-wireless strategy's
// pinned annealer, the other user of the Manhattan table.
func TestAnnealPinnedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for c := 0; c < 30; c++ {
		d := diffDims[rng.Intn(len(diffDims))]
		chip := platform.Chip{Rows: d[0], Cols: d[1], TileMM: 2.5}
		n := chip.NumCores()
		assign := randomAssign(rng, n, 4)
		quads, err := topo.PartitionForAssign(chip, assign)
		if err != nil {
			t.Fatal(err)
		}
		traffic := randomExactTraffic(rng, n)
		pinned := make([]bool, n)
		for i := range pinned {
			pinned[i] = rng.Intn(5) == 0
		}
		got := initialClusterMapping(assign, quads, n)
		want := initialClusterMapping(assign, quads, n)
		seed := rng.Int63n(1000)
		annealPinned(chip, assign, traffic, &got, pinned, seed, 30)
		refAnnealPinned(chip, assign, traffic, &want, pinned, seed, 30)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (%dx%d): pinned annealing diverged from the reference", c, chip.Rows, chip.Cols)
		}
	}
}

// TestScorePlacementAllocsLinear: scoring one WI proposal copies the
// fabric and runs the path-free search, O(n) allocations on an n-switch
// chip; building the route table instead allocates a path per routed pair.
func TestScorePlacementAllocsLinear(t *testing.T) {
	for _, chip := range []platform.Chip{{Rows: 4, Cols: 4, TileMM: 2.5}, platform.DefaultChip()} {
		n := chip.NumCores()
		wire, err := topo.SmallWorld(chip, topo.DefaultSmallWorldConfig())
		if err != nil {
			t.Fatal(err)
		}
		placement, err := RegionWIs(chip, topo.Quadrants(chip))
		if err != nil {
			t.Fatal(err)
		}
		traffic := randomExactTraffic(rand.New(rand.NewSource(3)), n)
		opts := DefaultOptions()
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := (fabric{wire: wire, switchTraffic: traffic}).score(placement, opts); err != nil {
				t.Fatal(err)
			}
		})
		if bound := float64(2*n + 64); allocs > bound {
			t.Errorf("%dx%d: scoring one placement allocated %v objects, want at most %v (routed pairs: %d)",
				chip.Rows, chip.Cols, allocs, bound, n*(n-1))
		}
	}
}
