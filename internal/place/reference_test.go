package place

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"

	"wivfi/internal/noc"
	"wivfi/internal/platform"
	"wivfi/internal/topo"
)

// This file keeps the straightforward forms of the placement kernels as
// test-only references: WI annealing that rebuilds the whole small-world
// fabric and a full route table for every proposal, and mapping annealers
// that ask the chip for every Manhattan distance. The production code must
// reproduce them bit for bit (differential_test.go).

// refDist is the distance closure the reference annealers use.
func refDist(chip platform.Chip) func(a, b int) float64 {
	return func(a, b int) float64 { return float64(chip.ManhattanHops(a, b)) }
}

func refMappingCost(traffic [][]float64, m Mapping, dist func(a, b int) float64) float64 {
	var sum float64
	for i, row := range traffic {
		ti := m.ThreadToTile[i]
		for j, f := range row {
			if f != 0 {
				sum += f * dist(ti, m.ThreadToTile[j])
			}
		}
	}
	return sum
}

func refSwapDelta(traffic [][]float64, m Mapping, dist func(x, y int) float64, a, b int) float64 {
	ta, tb := m.ThreadToTile[a], m.ThreadToTile[b]
	var d float64
	for c := range traffic {
		if c == a || c == b {
			continue
		}
		tc := m.ThreadToTile[c]
		fa := traffic[a][c] + traffic[c][a]
		if fa != 0 {
			d += fa * (dist(tb, tc) - dist(ta, tc))
		}
		fb := traffic[b][c] + traffic[c][b]
		if fb != 0 {
			d += fb * (dist(ta, tc) - dist(tb, tc))
		}
	}
	return d
}

// refColumnSwapDelta is swapDelta reading both directions of each pair's
// traffic from the matrix, row a and the strided column a, per call.
func refColumnSwapDelta(traffic [][]float64, m Mapping, dist hopTable, a, b int) float64 {
	da, db := dist.row(m.ThreadToTile[a]), dist.row(m.ThreadToTile[b])
	var d float64
	for c := range traffic {
		if c == a || c == b {
			continue
		}
		tc := m.ThreadToTile[c]
		fa := traffic[a][c] + traffic[c][a]
		if fa != 0 {
			d += fa * (db[tc] - da[tc])
		}
		fb := traffic[b][c] + traffic[c][b]
		if fb != 0 {
			d += fb * (da[tc] - db[tc])
		}
	}
	// the a-b pair itself: distance unchanged (swap is symmetric)
	return d
}

// diffSwapDeltas compares swapDelta with refColumnSwapDelta on random
// pairs of a few shuffled mappings, then the final mapping of
// MapThreadsMinDistance with the reference annealer's. It returns "" when
// every delta's bits and the mappings agree.
func diffSwapDeltas(chip platform.Chip, assign []int, traffic [][]float64, seed int64) string {
	n := chip.NumCores()
	quads, err := topo.PartitionForAssign(chip, assign)
	if err != nil {
		return err.Error()
	}
	rng := rand.New(rand.NewSource(seed))
	m := initialClusterMapping(assign, quads, n)
	dist := newHopTable(chip)
	sym := newSymTraffic(traffic)
	for round := 0; round < 3; round++ {
		for k := 0; k < n; k++ {
			if a, b := rng.Intn(n), rng.Intn(n); a != b && assign[a] == assign[b] {
				applySwap(&m, a, b)
			}
		}
		for k := 0; k < 8*n; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			got, want := swapDelta(sym, m, dist, a, b), refColumnSwapDelta(traffic, m, dist, a, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Sprintf("round %d: swapDelta(%d, %d) = %v, reference %v", round, a, b, got, want)
			}
		}
	}
	got, err := MapThreadsMinDistance(chip, assign, traffic, seed, 200)
	if err != nil {
		return err.Error()
	}
	want, err := refMapThreadsMinDistance(chip, assign, traffic, seed, 200)
	if err != nil {
		return err.Error()
	}
	if !reflect.DeepEqual(got, want) {
		return "MapThreadsMinDistance mapping differs from the reference"
	}
	return ""
}

func refPolishMapping(traffic [][]float64, m *Mapping, dist func(x, y int) float64, assign []int) {
	n := len(traffic)
	improved := true
	for improved {
		improved = false
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if assign[a] != assign[b] {
					continue
				}
				if refSwapDelta(traffic, *m, dist, a, b) < -1e-12 {
					applySwap(m, a, b)
					improved = true
				}
			}
		}
	}
}

func refMapThreadsMinDistance(chip platform.Chip, assign []int, traffic [][]float64, seed int64, sweeps int) (Mapping, error) {
	n := chip.NumCores()
	quads, err := topo.PartitionForAssign(chip, assign)
	if err != nil {
		return Mapping{}, err
	}
	if err := checkClusterSizes(assign, quads); err != nil {
		return Mapping{}, err
	}
	m := initialClusterMapping(assign, quads, n)
	rng := rand.New(rand.NewSource(seed))
	dist := refDist(chip)
	cost := refMappingCost(traffic, m, dist)
	temp := cost / float64(n*4)
	if temp <= 0 {
		temp = 1
	}
	cool := math.Pow(1e-3, 1/float64(max(sweeps, 1)))
	for sweep := 0; sweep < sweeps; sweep++ {
		for move := 0; move < n; move++ {
			a := rng.Intn(n)
			b := rng.Intn(n)
			if a == b || assign[a] != assign[b] {
				continue
			}
			d := refSwapDelta(traffic, m, dist, a, b)
			if d <= 0 || rng.Float64() < math.Exp(-d/temp) {
				applySwap(&m, a, b)
				cost += d
			}
		}
		temp *= cool
	}
	refPolishMapping(traffic, &m, dist, assign)
	return m, nil
}

func refAnnealPinned(chip platform.Chip, assign []int, traffic [][]float64, m *Mapping, pinned []bool, seed int64, sweeps int) {
	n := len(assign)
	rng := rand.New(rand.NewSource(seed + 7))
	dist := refDist(chip)
	cost := refMappingCost(traffic, *m, dist)
	temp := cost / float64(n*4)
	if temp <= 0 {
		temp = 1
	}
	cool := math.Pow(1e-3, 1/float64(max(sweeps, 1)))
	for sweep := 0; sweep < sweeps; sweep++ {
		for move := 0; move < n; move++ {
			a := rng.Intn(n)
			b := rng.Intn(n)
			if a == b || assign[a] != assign[b] || pinned[a] || pinned[b] {
				continue
			}
			d := refSwapDelta(traffic, *m, dist, a, b)
			if d <= 0 || rng.Float64() < math.Exp(-d/temp) {
				applySwap(m, a, b)
				cost += d
			}
		}
		temp *= cool
	}
	improved := true
	for improved {
		improved = false
		for a := 0; a < n; a++ {
			if pinned[a] {
				continue
			}
			for b := a + 1; b < n; b++ {
				if pinned[b] || assign[a] != assign[b] {
					continue
				}
				if refSwapDelta(traffic, *m, dist, a, b) < -1e-12 {
					applySwap(m, a, b)
					improved = true
				}
			}
		}
	}
}

// refEvalPlacement measures a WI placement on a freshly built fabric.
func refEvalPlacement(chip platform.Chip, regions [][]int, interTraffic, switchTraffic [][]float64, placement [][]int, opts Options) (float64, *topo.Topology, *noc.RouteTable, error) {
	cfg := opts.SmallWorld
	cfg.InterTraffic = interTraffic
	tp, err := topo.SmallWorldRegions(chip, regions, cfg)
	if err != nil {
		return 0, nil, nil, err
	}
	if err := topo.AddWireless(tp, placement); err != nil {
		return 0, nil, nil, err
	}
	rt, err := noc.BuildRoutes(tp, opts.Costs, opts.Routing)
	if err != nil {
		return 0, nil, nil, err
	}
	return rt.AvgHops(switchTraffic), tp, rt, nil
}

// refMinHopCount is strategy A with one fabric rebuild and one full route
// table per WI proposal.
func refMinHopCount(chip platform.Chip, assign []int, traffic [][]float64, opts Options) (Result, error) {
	mapping, err := refMapThreadsMinDistance(chip, assign, traffic, opts.Seed, opts.MappingSweeps)
	if err != nil {
		return Result{}, err
	}
	switchTraffic := MapTraffic(traffic, mapping)
	quads, err := topo.PartitionForAssign(chip, assign)
	if err != nil {
		return Result{}, err
	}
	tileCluster := topo.RegionOf(chip.NumCores(), quads)
	interTraffic := ClusterTraffic(switchTraffic, tileCluster, len(quads))

	rng := rand.New(rand.NewSource(opts.Seed + 1))
	placement, err := RegionWIs(chip, quads)
	if err != nil {
		return Result{}, err
	}
	bestHops, bestTopo, bestRT, err := refEvalPlacement(chip, quads, interTraffic, switchTraffic, placement, opts)
	if err != nil {
		return Result{}, err
	}
	cur := clonePlacement(placement)
	curHops := bestHops
	for sweep := 0; sweep < opts.WISweeps; sweep++ {
		q := rng.Intn(len(cur))
		slot := rng.Intn(len(cur[q]))
		cand := quads[q][rng.Intn(len(quads[q]))]
		if containsWI(cur, cand) {
			continue
		}
		old := cur[q][slot]
		cur[q][slot] = cand
		hops, tpc, rtc, err := refEvalPlacement(chip, quads, interTraffic, switchTraffic, cur, opts)
		if err != nil {
			cur[q][slot] = old
			continue
		}
		temp := 0.05 * float64(opts.WISweeps-sweep) / float64(opts.WISweeps)
		if hops < curHops || rng.Float64() < math.Exp((curHops-hops)/math.Max(temp, 1e-9)) {
			curHops = hops
			if hops < bestHops {
				bestHops = hops
				bestTopo, bestRT = tpc, rtc
				placement = clonePlacement(cur)
			}
		} else {
			cur[q][slot] = old
		}
	}
	return Result{
		Mapping:         mapping,
		WIPlacement:     placement,
		Topology:        bestTopo,
		Routes:          bestRT,
		SwitchTraffic:   switchTraffic,
		AvgWeightedHops: bestHops,
	}, nil
}
