package place

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"wivfi/internal/platform"
	"wivfi/internal/topo"
)

// quadrantAssign returns the thread->cluster map where thread i belongs to
// the quadrant of tile i (a natural, size-respecting assignment).
func quadrantAssign(chip platform.Chip) []int {
	return topo.QuadrantOf(chip)
}

// randTraffic builds a random thread traffic matrix.
func randTraffic(rng *rand.Rand, n int, density float64) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			if i != j && rng.Float64() < density {
				m[i][j] = rng.Float64()
			}
		}
	}
	return m
}

func TestIdentityMapping(t *testing.T) {
	m := NewIdentityMapping(8)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if m.ThreadToTile[i] != i || m.TileToThread[i] != i {
			t.Fatal("identity mapping is not identity")
		}
	}
}

func TestMappingValidateCatchesCorruption(t *testing.T) {
	m := NewIdentityMapping(4)
	m.ThreadToTile[0] = 1 // now two threads map to tile 1
	if err := m.Validate(); err == nil {
		t.Error("corrupt mapping accepted")
	}
	m2 := Mapping{ThreadToTile: []int{0}, TileToThread: []int{0, 1}}
	if err := m2.Validate(); err == nil {
		t.Error("length mismatch accepted")
	}
	m3 := NewIdentityMapping(4)
	m3.ThreadToTile[2] = 9
	if err := m3.Validate(); err == nil {
		t.Error("out-of-range tile accepted")
	}
}

func TestMapTraffic(t *testing.T) {
	traffic := [][]float64{
		{0, 5, 0},
		{0, 0, 2},
		{1, 0, 0},
	}
	m := Mapping{ThreadToTile: []int{2, 0, 1}, TileToThread: []int{1, 2, 0}}
	out := MapTraffic(traffic, m)
	// thread 0 (tile 2) -> thread 1 (tile 0): 5
	if out[2][0] != 5 || out[0][1] != 2 || out[1][2] != 1 {
		t.Errorf("MapTraffic = %v", out)
	}
	// totals preserved
	var sumIn, sumOut float64
	for i := range traffic {
		for j := range traffic {
			sumIn += traffic[i][j]
			sumOut += out[i][j]
		}
	}
	if sumIn != sumOut {
		t.Errorf("traffic total changed: %v -> %v", sumIn, sumOut)
	}
}

func TestClusterTraffic(t *testing.T) {
	assign := []int{0, 0, 1, 1}
	traffic := [][]float64{
		{0, 9, 2, 0}, // 0->1 intra; 0->2 inter
		{0, 0, 0, 3}, // 1->3 inter
		{0, 0, 0, 7}, // 2->3 intra
		{1, 0, 0, 0}, // 3->0 inter
	}
	ct := ClusterTraffic(traffic, assign, 2)
	if ct[0][1] != 5 { // 2 + 3
		t.Errorf("ct[0][1] = %v, want 5", ct[0][1])
	}
	if ct[1][0] != 1 {
		t.Errorf("ct[1][0] = %v, want 1", ct[1][0])
	}
	if ct[0][0] != 0 || ct[1][1] != 0 {
		t.Error("intra-cluster traffic leaked into cluster matrix")
	}
}

func TestMapThreadsMinDistanceImprovesOverInitial(t *testing.T) {
	chip := platform.DefaultChip()
	assign := quadrantAssign(chip)
	rng := rand.New(rand.NewSource(3))
	traffic := randTraffic(rng, 64, 0.1)
	quads := topo.Quadrants(chip)
	initial := initialClusterMapping(assign, quads, 64)
	dist := newHopTable(chip)
	initialCost := mappingCost(traffic, initial, dist)

	m, err := MapThreadsMinDistance(chip, assign, traffic, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	optimized := mappingCost(traffic, m, dist)
	if optimized > initialCost {
		t.Errorf("optimized cost %v above initial %v", optimized, initialCost)
	}
	// threads stay inside their cluster's quadrant
	of := topo.QuadrantOf(chip)
	for th, tile := range m.ThreadToTile {
		if of[tile] != assign[th] {
			t.Fatalf("thread %d of cluster %d mapped to quadrant %d", th, assign[th], of[tile])
		}
	}
}

func TestMapThreadsMinDistanceRejectsBadSizes(t *testing.T) {
	chip := platform.DefaultChip()
	// Island labels with a gap (island 1 empty) are invalid.
	gap := make([]int, 64)
	for i := 32; i < 64; i++ {
		gap[i] = 2
	}
	if _, err := MapThreadsMinDistance(chip, gap, randTraffic(rand.New(rand.NewSource(1)), 64, 0.1), 1, 10); err == nil {
		t.Error("assignment with empty island accepted")
	}
	neg := make([]int, 64)
	neg[3] = -1
	if _, err := MapThreadsMinDistance(chip, neg, randTraffic(rand.New(rand.NewSource(1)), 64, 0.1), 1, 10); err == nil {
		t.Error("negative island index accepted")
	}
	if _, err := MapThreadsMinDistance(chip, gap[:10], nil, 1, 10); err == nil {
		t.Error("short assignment accepted")
	}
	// A single chip-wide cluster is a valid (degenerate) partition under
	// the generalized region API.
	if _, err := MapThreadsMinDistance(chip, make([]int, 64), randTraffic(rand.New(rand.NewSource(1)), 64, 0.1), 1, 2); err != nil {
		t.Errorf("single-cluster assignment rejected: %v", err)
	}
}

// A traffic row shorter or longer than the chip is an error from every
// placement entry point, not an index panic inside the annealer.
func TestPlacementRejectsRaggedTraffic(t *testing.T) {
	chip := platform.Chip{Rows: 4, Cols: 4, TileMM: 2.5}
	assign := quadrantAssign(chip)
	opts := DefaultOptions()
	opts.MappingSweeps, opts.WISweeps = 2, 1
	for _, cols := range []int{5, 17} {
		traffic := randTraffic(rand.New(rand.NewSource(1)), 16, 0.5)
		traffic[3] = make([]float64, cols)
		if _, err := MapThreadsMinDistance(chip, assign, traffic, 1, 2); err == nil {
			t.Errorf("MapThreadsMinDistance accepted a %d-entry row", cols)
		}
		if _, err := MinHopCount(chip, assign, traffic, opts); err == nil {
			t.Errorf("MinHopCount accepted a %d-entry row", cols)
		}
		if _, err := MaxWirelessUtil(chip, assign, traffic, opts); err == nil {
			t.Errorf("MaxWirelessUtil accepted a %d-entry row", cols)
		}
	}
}

func TestSwapDeltaMatchesRecompute(t *testing.T) {
	chip := platform.DefaultChip()
	assign := quadrantAssign(chip)
	rng := rand.New(rand.NewSource(7))
	traffic := randTraffic(rng, 64, 0.15)
	m := initialClusterMapping(assign, topo.Quadrants(chip), 64)
	dist := newHopTable(chip)
	base := mappingCost(traffic, m, dist)
	for k := 0; k < 50; k++ {
		a, b := rng.Intn(64), rng.Intn(64)
		if a == b || assign[a] != assign[b] {
			continue
		}
		d := swapDelta(newSymTraffic(traffic), m, dist, a, b)
		applySwap(&m, a, b)
		after := mappingCost(traffic, m, dist)
		if math.Abs(base+d-after) > 1e-9 {
			t.Fatalf("swap delta mismatch: %v + %v != %v", base, d, after)
		}
		base = after
	}
}

func TestCenterWIs(t *testing.T) {
	chip := platform.DefaultChip()
	placement := CenterWIs(chip)
	if len(placement) != 4 {
		t.Fatalf("placement for %d clusters", len(placement))
	}
	of := topo.QuadrantOf(chip)
	seen := map[int]bool{}
	for q, wis := range placement {
		if len(wis) != topo.WIsPerCluster {
			t.Fatalf("cluster %d has %d WIs", q, len(wis))
		}
		for _, s := range wis {
			if of[s] != q {
				t.Errorf("WI %d of cluster %d lies in quadrant %d", s, q, of[s])
			}
			if seen[s] {
				t.Errorf("switch %d hosts two WIs", s)
			}
			seen[s] = true
			// near the quadrant centre: within 2 hops of it
			r0 := (q / 2) * 4
			c0 := (q % 2) * 4
			center := chip.ID(r0+2, c0+2)
			if chip.ManhattanHops(s, center) > 2 {
				t.Errorf("WI %d is %d hops from quadrant centre", s, chip.ManhattanHops(s, center))
			}
		}
	}
}

func TestMinHopCountEndToEnd(t *testing.T) {
	chip := platform.DefaultChip()
	assign := quadrantAssign(chip)
	rng := rand.New(rand.NewSource(11))
	traffic := randTraffic(rng, 64, 0.1)
	opts := DefaultOptions()
	opts.WISweeps = 15 // keep the test fast
	res, err := MinHopCount(chip, assign, traffic, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Mapping.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := res.Topology.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(res.Topology.WIs) != 12 {
		t.Errorf("WI count = %d", len(res.Topology.WIs))
	}
	if res.AvgWeightedHops <= 0 {
		t.Errorf("AvgWeightedHops = %v", res.AvgWeightedHops)
	}
	// WIs stay in their quadrants
	of := topo.QuadrantOf(chip)
	for q, wis := range res.WIPlacement {
		for _, s := range wis {
			if of[s] != q {
				t.Errorf("WI %d of cluster %d in quadrant %d", s, q, of[s])
			}
		}
	}
}

func TestMaxWirelessUtilEndToEnd(t *testing.T) {
	chip := platform.DefaultChip()
	assign := quadrantAssign(chip)
	rng := rand.New(rand.NewSource(13))
	traffic := randTraffic(rng, 64, 0.1)
	res, err := MaxWirelessUtil(chip, assign, traffic, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Mapping.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := res.Topology.Validate(); err != nil {
		t.Fatal(err)
	}
	// busiest thread of each cluster must sit on a tile adjacent to a WI
	volume := make([]float64, 64)
	for i, row := range traffic {
		for j, f := range row {
			volume[i] += f
			volume[j] += f
		}
	}
	for q := 0; q < 4; q++ {
		busiest, bv := -1, -1.0
		for th, c := range assign {
			if c == q && volume[th] > bv {
				busiest, bv = th, volume[th]
			}
		}
		tile := res.Mapping.ThreadToTile[busiest]
		if d := distToNearestWI(chip, tile, res.WIPlacement[q]); d > 1 {
			t.Errorf("cluster %d busiest thread sits %d hops from nearest WI", q, d)
		}
	}
}

func TestMaxWirelessUtilCarriesMoreWirelessTraffic(t *testing.T) {
	// The defining property of strategy B (Fig. 6's premise): it routes a
	// larger share of traffic over wireless links than strategy A for
	// inter-cluster-heavy workloads.
	chip := platform.DefaultChip()
	assign := quadrantAssign(chip)
	rng := rand.New(rand.NewSource(17))
	n := 64
	traffic := make([][]float64, n)
	for i := range traffic {
		traffic[i] = make([]float64, n)
	}
	// a handful of hot threads per cluster talking across clusters
	for q := 0; q < 4; q++ {
		for p := 0; p < 4; p++ {
			if q == p {
				continue
			}
			for k := 0; k < 3; k++ {
				var a, b int
				for {
					a = rng.Intn(n)
					if assign[a] == q {
						break
					}
				}
				for {
					b = rng.Intn(n)
					if assign[b] == p {
						break
					}
				}
				traffic[a][b] += 2
			}
		}
	}
	opts := DefaultOptions()
	opts.WISweeps = 10
	resA, err := MinHopCount(chip, assign, traffic, opts)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := MaxWirelessUtil(chip, assign, traffic, opts)
	if err != nil {
		t.Fatal(err)
	}
	fracA := wirelessShare(resA)
	fracB := wirelessShare(resB)
	if fracB <= fracA {
		t.Errorf("max-wireless strategy share %.3f not above min-hop %.3f", fracB, fracA)
	}
}

// wirelessShare computes the fraction of flit-hops over wireless links for
// the result's switch traffic.
func wirelessShare(r Result) float64 {
	var wireless, total float64
	n := len(r.SwitchTraffic)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			f := r.SwitchTraffic[s][d]
			if f == 0 || s == d {
				continue
			}
			for _, l := range r.Routes.PathLinks(s, d) {
				if l.Type == topo.Wireless {
					wireless += f
				}
				total += f
			}
		}
	}
	if total == 0 {
		return 0
	}
	return wireless / total
}

func TestPlacementDeterministic(t *testing.T) {
	chip := platform.DefaultChip()
	assign := quadrantAssign(chip)
	rng := rand.New(rand.NewSource(19))
	traffic := randTraffic(rng, 64, 0.08)
	opts := DefaultOptions()
	opts.WISweeps = 8
	a, err := MinHopCount(chip, assign, traffic, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MinHopCount(chip, assign, traffic, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgWeightedHops != b.AvgWeightedHops {
		t.Errorf("non-deterministic placement: %v vs %v", a.AvgWeightedHops, b.AvgWeightedHops)
	}
	for i := range a.Mapping.ThreadToTile {
		if a.Mapping.ThreadToTile[i] != b.Mapping.ThreadToTile[i] {
			t.Fatal("non-deterministic mapping")
		}
	}
}

func TestCenterWIsOnSmallerChip(t *testing.T) {
	chip := platform.Chip{Rows: 4, Cols: 4, TileMM: 2.5}
	placement := CenterWIs(chip)
	if len(placement) != 4 {
		t.Fatalf("placement for %d clusters", len(placement))
	}
	seen := map[int]bool{}
	of := topo.QuadrantOf(chip)
	for q, wis := range placement {
		if len(wis) != topo.WIsPerCluster {
			t.Fatalf("cluster %d has %d WIs", q, len(wis))
		}
		for _, s := range wis {
			if s < 0 || s >= chip.NumCores() {
				t.Fatalf("WI %d out of range on 4x4 chip", s)
			}
			if of[s] != q {
				t.Errorf("WI %d of cluster %d in quadrant %d", s, q, of[s])
			}
			if seen[s] {
				t.Errorf("duplicate WI switch %d", s)
			}
			seen[s] = true
		}
	}
}

func TestMaxWirelessPinnedThreadsStayByWIs(t *testing.T) {
	// after the locality polish, the three hottest threads per cluster must
	// still sit on the WI-adjacent tiles
	chip := platform.DefaultChip()
	assign := quadrantAssign(chip)
	rng := rand.New(rand.NewSource(23))
	traffic := randTraffic(rng, 64, 0.15)
	res, err := MaxWirelessUtil(chip, assign, traffic, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	volume := make([]float64, 64)
	for i, row := range traffic {
		for j, f := range row {
			volume[i] += f
			volume[j] += f
		}
	}
	for q := 0; q < 4; q++ {
		// the three hottest threads of the cluster
		var threads []int
		for th, c := range assign {
			if c == q {
				threads = append(threads, th)
			}
		}
		sort.SliceStable(threads, func(a, b int) bool { return volume[threads[a]] > volume[threads[b]] })
		for i := 0; i < 3; i++ {
			tile := res.Mapping.ThreadToTile[threads[i]]
			if d := distToNearestWI(chip, tile, res.WIPlacement[q]); d > 1 {
				t.Errorf("cluster %d pinned thread #%d sits %d hops from a WI after polish", q, i, d)
			}
		}
	}
}
