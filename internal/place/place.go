// Package place implements the wireless-link placement and thread-mapping
// methodologies of Section 6 of the paper:
//
//   - MinHopCount: map the threads of each VFI cluster onto their quadrant's
//     tiles so that highly-communicating threads sit close together, build
//     the small-world wireline fabric once, then run simulated annealing
//     over wireless-interface (WI) positions to minimize the average
//     traffic-weighted hop count, scoring each proposal path-free on a copy
//     of the fabric with its wireless overlay;
//   - MaxWirelessUtil: pin the WIs near the centre of each VFI quadrant and
//     map threads "logically near, physically far": the threads carrying the
//     most traffic are placed on the tiles closest to their cluster's WIs so
//     their flits ride the energy-efficient wireless links.
//
// Each strategy plans a Placement (thread mapping plus WI switches) and
// ends in one realization step: switch traffic, wireline fabric, WI overlay
// and routes. Realize runs that step alone, so a stored Placement rebuilds
// the strategy's exact WiNoC without planning it again.
//
// Thread-level traffic matrices are translated to switch-level matrices by
// the chosen mapping; the full-system simulator consumes the result.
package place

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"wivfi/internal/noc"
	"wivfi/internal/obs"
	"wivfi/internal/platform"
	"wivfi/internal/topo"
)

// Work counters of design-time planning. A design-cache hit rebuilds the
// stored decisions instead, so a warm pipeline adds nothing to either.
const (
	// MetricMinHopAnneals counts WI-placement anneals (one per min-hop
	// planning that reaches the annealing loop).
	MetricMinHopAnneals = "place.min_hop.anneals"
	// MetricMapThreadsCalls counts min-distance thread-mapping anneals
	// (MapThreadsMinDistance calls).
	MetricMapThreadsCalls = "place.map_threads.calls"
)

var (
	minHopAnneals   = obs.NewCounter(MetricMinHopAnneals)
	mapThreadsCalls = obs.NewCounter(MetricMapThreadsCalls)
)

// Mapping is a bijection between threads (logical cores carrying the
// profile's utilization and traffic) and tiles (physical switch positions).
type Mapping struct {
	ThreadToTile []int
	TileToThread []int
}

// NewIdentityMapping returns the identity mapping over n threads.
func NewIdentityMapping(n int) Mapping {
	m := Mapping{ThreadToTile: make([]int, n), TileToThread: make([]int, n)}
	for i := 0; i < n; i++ {
		m.ThreadToTile[i] = i
		m.TileToThread[i] = i
	}
	return m
}

// Validate checks that the mapping is a bijection.
func (m Mapping) Validate() error {
	n := len(m.ThreadToTile)
	if len(m.TileToThread) != n {
		return fmt.Errorf("place: mapping arrays disagree: %d vs %d", n, len(m.TileToThread))
	}
	for thread, tile := range m.ThreadToTile {
		if tile < 0 || tile >= n {
			return fmt.Errorf("place: thread %d mapped to bad tile %d", thread, tile)
		}
		if m.TileToThread[tile] != thread {
			return fmt.Errorf("place: mapping not a bijection at thread %d", thread)
		}
	}
	return nil
}

// MapTraffic rewrites a thread-to-thread traffic matrix into a
// switch-to-switch matrix under the mapping.
func MapTraffic(traffic [][]float64, m Mapping) [][]float64 {
	n := len(traffic)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
	}
	for i, row := range traffic {
		ti := m.ThreadToTile[i]
		for j, f := range row {
			if f != 0 {
				out[ti][m.ThreadToTile[j]] += f
			}
		}
	}
	return out
}

// ClusterTraffic aggregates thread-level traffic to cluster level:
// out[a][b] is the total traffic from threads of cluster a to threads of
// cluster b. The result is mapping-invariant and parameterizes the
// inter-cluster link apportioning of the small-world builder.
func ClusterTraffic(traffic [][]float64, assign []int, m int) [][]float64 {
	out := make([][]float64, m)
	for a := range out {
		out[a] = make([]float64, m)
	}
	for i, row := range traffic {
		for j, f := range row {
			if f != 0 && assign[i] != assign[j] {
				out[assign[i]][assign[j]] += f
			}
		}
	}
	return out
}

// Options configures both placement strategies.
type Options struct {
	// SmallWorld configures the wireline fabric construction.
	SmallWorld topo.SmallWorldConfig
	// Costs is the link cost model used for routing during optimization.
	Costs noc.LinkCosts
	// Routing is the mode used to evaluate hop counts (UpDown for WiNoC).
	Routing noc.RoutingMode
	// Seed drives the simulated annealing.
	Seed int64
	// MappingSweeps and WISweeps bound the two annealing loops.
	MappingSweeps int
	WISweeps      int
}

// DefaultOptions returns settings that converge in well under a second for
// the 64-core platform.
func DefaultOptions() Options {
	return Options{
		SmallWorld:    topo.DefaultSmallWorldConfig(),
		Costs:         noc.DefaultLinkCosts(),
		Routing:       noc.UpDown,
		Seed:          1,
		MappingSweeps: 200,
		WISweeps:      60,
	}
}

// Result is the outcome of a placement strategy.
type Result struct {
	Mapping     Mapping
	WIPlacement [][]int // per cluster, WIsPerCluster switch ids
	Topology    *topo.Topology
	Routes      *noc.RouteTable
	// SwitchTraffic is the thread traffic rewritten under Mapping.
	SwitchTraffic [][]float64
	// AvgWeightedHops is the traffic-weighted average hop count achieved.
	AvgWeightedHops float64
}

// Placement is what a strategy decides at design time: the tile of every
// thread and the WIsPerCluster switches of every cluster that host its
// wireless interfaces. With the chip, the island assignment, the thread
// traffic and the Options it determines the whole WiNoC (Realize).
type Placement struct {
	ThreadToTile []int   `json:"thread_to_tile"`
	WIs          [][]int `json:"wis"`
}

// CheckMapping validates a stored thread-to-tile map against the island
// regions of assign on chip and returns it as a Mapping: it must be a
// permutation that keeps every thread inside its island's region, the
// shape MapThreadsMinDistance produces.
func CheckMapping(chip platform.Chip, assign, threadToTile []int) (Mapping, error) {
	quads, err := regionsFor(chip, assign)
	if err != nil {
		return Mapping{}, err
	}
	return checkMapping(threadToTile, assign, quads)
}

// Check validates p against the island regions of assign on chip and
// returns its thread mapping (see CheckMapping); every cluster also needs
// topo.WIsPerCluster distinct WIs inside its own region.
func (p Placement) Check(chip platform.Chip, assign []int) (Mapping, error) {
	quads, err := regionsFor(chip, assign)
	if err != nil {
		return Mapping{}, err
	}
	return p.check(assign, quads)
}

// regionsFor returns the island regions of assign on chip, checking that
// every island fills its region exactly.
func regionsFor(chip platform.Chip, assign []int) ([][]int, error) {
	n := chip.NumCores()
	if len(assign) != n {
		return nil, fmt.Errorf("place: need %d assignments", n)
	}
	for th, c := range assign {
		if c < 0 || c >= n {
			return nil, fmt.Errorf("place: thread %d in island %d of at most %d", th, c, n)
		}
	}
	quads, err := topo.PartitionForAssign(chip, assign)
	if err != nil {
		return nil, err
	}
	if err := checkClusterSizes(assign, quads); err != nil {
		return nil, err
	}
	return quads, nil
}

// checkMapping is CheckMapping over the regions quads of assign.
func checkMapping(threadToTile, assign []int, quads [][]int) (Mapping, error) {
	n := len(assign)
	if len(threadToTile) != n {
		return Mapping{}, fmt.Errorf("place: placement maps %d threads, want %d", len(threadToTile), n)
	}
	region := topo.RegionOf(n, quads)
	m := Mapping{ThreadToTile: append([]int(nil), threadToTile...), TileToThread: make([]int, n)}
	for tile := range m.TileToThread {
		m.TileToThread[tile] = -1
	}
	for th, tile := range m.ThreadToTile {
		switch {
		case tile < 0 || tile >= n:
			return Mapping{}, fmt.Errorf("place: thread %d mapped to bad tile %d", th, tile)
		case m.TileToThread[tile] >= 0:
			return Mapping{}, fmt.Errorf("place: tile %d hosts threads %d and %d", tile, m.TileToThread[tile], th)
		case region[tile] != assign[th]:
			return Mapping{}, fmt.Errorf("place: thread %d of island %d mapped to tile %d of region %d",
				th, assign[th], tile, region[tile])
		}
		m.TileToThread[tile] = th
	}
	return m, nil
}

// check is Check over the regions quads of assign.
func (p Placement) check(assign []int, quads [][]int) (Mapping, error) {
	m, err := checkMapping(p.ThreadToTile, assign, quads)
	if err != nil {
		return Mapping{}, err
	}
	n := len(assign)
	region := topo.RegionOf(n, quads)
	if len(p.WIs) != len(quads) {
		return Mapping{}, fmt.Errorf("place: placement has WIs for %d clusters, want %d", len(p.WIs), len(quads))
	}
	hasWI := make([]bool, n)
	for q, wis := range p.WIs {
		if len(wis) != topo.WIsPerCluster {
			return Mapping{}, fmt.Errorf("place: cluster %d has %d WIs, want %d", q, len(wis), topo.WIsPerCluster)
		}
		for _, s := range wis {
			if s < 0 || s >= n || region[s] != q {
				return Mapping{}, fmt.Errorf("place: cluster %d WI at switch %d outside its region", q, s)
			}
			if hasWI[s] {
				return Mapping{}, fmt.Errorf("place: switch %d hosts two WIs", s)
			}
			hasWI[s] = true
		}
	}
	return m, nil
}

// MapThreadsMinDistance maps each cluster's threads onto its quadrant's
// tiles minimizing sum(f_ip * manhattan(tile_i, tile_p)) with simulated
// annealing over within-cluster swaps followed by greedy polishing.
func MapThreadsMinDistance(chip platform.Chip, assign []int, traffic [][]float64, seed int64, sweeps int) (Mapping, error) {
	n := chip.NumCores()
	if err := checkInputs(assign, traffic, n); err != nil {
		return Mapping{}, err
	}
	quads, err := topo.PartitionForAssign(chip, assign)
	if err != nil {
		return Mapping{}, err
	}
	if err := checkClusterSizes(assign, quads); err != nil {
		return Mapping{}, err
	}
	mapThreadsCalls.Add(1)
	m := initialClusterMapping(assign, quads, n)
	rng := rand.New(rand.NewSource(seed))
	dist := newHopTable(chip)
	sym := newSymTraffic(traffic)
	cost := mappingCost(traffic, m, dist)
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
			d := swapDelta(sym, m, dist, a, b)
			if d <= 0 || rng.Float64() < math.Exp(-d/temp) {
				applySwap(&m, a, b)
				cost += d
			}
		}
		temp *= cool
	}
	polishMapping(sym, &m, dist, assign)
	return m, nil
}

// checkInputs rejects a thread assignment or traffic matrix that is not
// sized for n threads: n assignments, n traffic rows of n entries each.
func checkInputs(assign []int, traffic [][]float64, n int) error {
	if len(assign) != n || len(traffic) != n {
		return fmt.Errorf("place: need %d assignments and traffic rows", n)
	}
	for i, row := range traffic {
		if len(row) != n {
			return fmt.Errorf("place: traffic row %d has %d entries, want %d", i, len(row), n)
		}
	}
	return nil
}

// initialClusterMapping deals the threads of cluster j onto quadrant j's
// tiles in index order.
func initialClusterMapping(assign []int, quads [][]int, n int) Mapping {
	m := Mapping{ThreadToTile: make([]int, n), TileToThread: make([]int, n)}
	next := make([]int, len(quads))
	for thread := 0; thread < n; thread++ {
		q := assign[thread]
		tile := quads[q][next[q]]
		next[q]++
		m.ThreadToTile[thread] = tile
		m.TileToThread[tile] = thread
	}
	return m
}

func checkClusterSizes(assign []int, quads [][]int) error {
	counts := make([]int, len(quads))
	for _, c := range assign {
		if c < 0 || c >= len(quads) {
			return fmt.Errorf("place: cluster index %d out of range", c)
		}
		counts[c]++
	}
	for q, c := range counts {
		if c != len(quads[q]) {
			return fmt.Errorf("place: cluster %d has %d threads for %d tiles", q, c, len(quads[q]))
		}
	}
	return nil
}

// hopTable is a chip's Manhattan distance matrix, row-major over tile ids
// and pre-converted to float64, so the annealers' inner loops index a row
// instead of dividing tile ids into coordinates on every lookup.
type hopTable struct {
	n int
	d []float64
}

func newHopTable(chip platform.Chip) hopTable {
	n := chip.NumCores()
	h := hopTable{n: n, d: make([]float64, n*n)}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			h.d[a*n+b] = float64(chip.ManhattanHops(a, b))
		}
	}
	return h
}

// row returns the distances from tile a to every tile.
func (h hopTable) row(a int) []float64 { return h.d[a*h.n : (a+1)*h.n] }

// mappingCost is the full objective: sum over ordered pairs of traffic
// times distance.
func mappingCost(traffic [][]float64, m Mapping, dist hopTable) float64 {
	var sum float64
	for i, row := range traffic {
		di := dist.row(m.ThreadToTile[i])
		for j, f := range row {
			if f != 0 {
				sum += f * di[m.ThreadToTile[j]]
			}
		}
	}
	return sum
}

// symTraffic is a thread traffic matrix folded over its diagonal,
// f[a*n+c] = traffic[a][c] + traffic[c][a], row-major, so the swap delta
// reads two contiguous rows instead of a strided column of the matrix.
type symTraffic struct {
	n int
	f []float64
}

func newSymTraffic(traffic [][]float64) symTraffic {
	n := len(traffic)
	s := symTraffic{n: n, f: make([]float64, n*n)}
	for a := 0; a < n; a++ {
		for c := 0; c < n; c++ {
			s.f[a*n+c] = traffic[a][c] + traffic[c][a]
		}
	}
	return s
}

// row returns thread a's traffic with every thread, both directions summed.
func (s symTraffic) row(a int) []float64 { return s.f[a*s.n : (a+1)*s.n] }

// swapDelta computes the cost change of swapping the tiles of threads a and
// b in O(n).
func swapDelta(sym symTraffic, m Mapping, dist hopTable, a, b int) float64 {
	da, db := dist.row(m.ThreadToTile[a]), dist.row(m.ThreadToTile[b])
	fa, fb := sym.row(a), sym.row(b)
	var d float64
	for c, tc := range m.ThreadToTile {
		if c == a || c == b {
			continue
		}
		if f := fa[c]; f != 0 {
			d += f * (db[tc] - da[tc])
		}
		if f := fb[c]; f != 0 {
			d += f * (da[tc] - db[tc])
		}
	}
	// the a-b pair itself: distance unchanged (swap is symmetric)
	return d
}

func applySwap(m *Mapping, a, b int) {
	ta, tb := m.ThreadToTile[a], m.ThreadToTile[b]
	m.ThreadToTile[a], m.ThreadToTile[b] = tb, ta
	m.TileToThread[ta], m.TileToThread[tb] = b, a
}

// polishMapping runs first-improvement swaps until a local optimum.
func polishMapping(sym symTraffic, m *Mapping, dist hopTable, assign []int) {
	n := sym.n
	improved := true
	for improved {
		improved = false
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if assign[a] != assign[b] {
					continue
				}
				if swapDelta(sym, *m, dist, a, b) < -1e-12 {
					applySwap(m, a, b)
					improved = true
				}
			}
		}
	}
}

// CenterWIs returns the max-wireless-utilization WI placement: three
// switches adjacent to the centre of each quadrant.
func CenterWIs(chip platform.Chip) [][]int {
	quads := topo.Quadrants(chip)
	out := make([][]int, len(quads))
	for q := range quads {
		// quadrant row/col origin
		r0 := (q / 2) * (chip.Rows / 2)
		c0 := (q % 2) * (chip.Cols / 2)
		cr := r0 + chip.Rows/4
		cc := c0 + chip.Cols/4
		out[q] = []int{
			chip.ID(cr, cc),
			chip.ID(cr-1, cc),
			chip.ID(cr, cc-1),
		}
	}
	return out
}

// RegionWIs generalizes CenterWIs to an arbitrary region partition: every
// region gets topo.WIsPerCluster switches near its centre. Rectangular
// regions of at least 2x2 tiles use the exact quadrant-centre rule (so the
// paper's layout is reproduced bit-for-bit); irregular regions fall back
// to the three tiles nearest the region centroid. Regions smaller than
// WIsPerCluster tiles cannot host a WI set and yield an error.
func RegionWIs(chip platform.Chip, regions [][]int) ([][]int, error) {
	out := make([][]int, len(regions))
	for q, tiles := range regions {
		if len(tiles) < topo.WIsPerCluster {
			return nil, fmt.Errorf("place: region %d has %d tiles; needs at least %d for its wireless interfaces",
				q, len(tiles), topo.WIsPerCluster)
		}
		minR, minC := chip.Rows, chip.Cols
		maxR, maxC := 0, 0
		for _, id := range tiles {
			r, c := chip.Coord(id)
			if r < minR {
				minR = r
			}
			if r > maxR {
				maxR = r
			}
			if c < minC {
				minC = c
			}
			if c > maxC {
				maxC = c
			}
		}
		h, w := maxR-minR+1, maxC-minC+1
		if len(tiles) == h*w && h >= 2 && w >= 2 {
			cr := minR + h/2
			cc := minC + w/2
			out[q] = []int{
				chip.ID(cr, cc),
				chip.ID(cr-1, cc),
				chip.ID(cr, cc-1),
			}
			continue
		}
		// Irregular (snake-sliced) region: the WIsPerCluster tiles closest
		// to the centroid, ties broken by tile id for determinism.
		var sr, sc float64
		for _, id := range tiles {
			r, c := chip.Coord(id)
			sr += float64(r)
			sc += float64(c)
		}
		sr /= float64(len(tiles))
		sc /= float64(len(tiles))
		ordered := append([]int(nil), tiles...)
		sort.SliceStable(ordered, func(a, b int) bool {
			ra, ca := chip.Coord(ordered[a])
			rb, cb := chip.Coord(ordered[b])
			da := (float64(ra)-sr)*(float64(ra)-sr) + (float64(ca)-sc)*(float64(ca)-sc)
			db := (float64(rb)-sr)*(float64(rb)-sr) + (float64(cb)-sc)*(float64(cb)-sc)
			if da != db {
				return da < db
			}
			return ordered[a] < ordered[b]
		})
		out[q] = append([]int(nil), ordered[:topo.WIsPerCluster]...)
	}
	return out, nil
}

// BuildTopology constructs the small-world wireline fabric (inter-cluster
// links apportioned by the cluster traffic of the mapped assignment) and
// overlays the WI placement, over the chip's quadrant clusters.
func BuildTopology(chip platform.Chip, interTraffic [][]float64, placement [][]int, cfg topo.SmallWorldConfig) (*topo.Topology, error) {
	cfg.InterTraffic = interTraffic
	wire, err := topo.SmallWorld(chip, cfg)
	if err != nil {
		return nil, err
	}
	return topo.WithWireless(wire, placement)
}

// MinHopCount runs strategy A. assign maps thread -> VFI cluster; traffic is
// thread-level.
//
// The wireline fabric depends only on the cluster traffic, the small-world
// config and its seed — not on where the WIs go — so it is built once.
// Each WI proposal is overlaid on a copy of it and scored with
// noc.RoutedAvgHops, which counts hops without building route paths; the
// full route table is built once, for the winning placement.
func MinHopCount(chip platform.Chip, assign []int, traffic [][]float64, opts Options) (Result, error) {
	mapping, err := MapThreadsMinDistance(chip, assign, traffic, opts.Seed, opts.MappingSweeps)
	if err != nil {
		return Result{}, err
	}
	f, placement, err := planMinHop(chip, assign, traffic, mapping, opts)
	if err != nil {
		return Result{}, err
	}
	return f.realize(placement, opts)
}

// PlanMinHopFrom is MinHopCount's planning alone, the placement it
// realizes, from a thread mapping already computed: it must be
// MapThreadsMinDistance's for (chip, assign, traffic, opts.Seed,
// opts.MappingSweeps), which every min-hop placement starts from.
func PlanMinHopFrom(chip platform.Chip, assign []int, traffic [][]float64, mapping Mapping, opts Options) (Placement, error) {
	f, placement, err := planMinHop(chip, assign, traffic, mapping, opts)
	if err != nil {
		return Placement{}, err
	}
	return Placement{ThreadToTile: f.mapping.ThreadToTile, WIs: placement}, nil
}

// planMinHop builds the fabric of the thread mapping and anneals the WIs.
func planMinHop(chip platform.Chip, assign []int, traffic [][]float64, mapping Mapping, opts Options) (fabric, [][]int, error) {
	if err := checkInputs(assign, traffic, chip.NumCores()); err != nil {
		return fabric{}, nil, err
	}
	quads, err := regionsFor(chip, assign)
	if err != nil {
		return fabric{}, nil, err
	}
	if mapping, err = checkMapping(mapping.ThreadToTile, assign, quads); err != nil {
		return fabric{}, nil, err
	}
	placement, err := RegionWIs(chip, quads) // starting point
	if err != nil {
		return fabric{}, nil, err
	}
	f, err := newFabric(chip, quads, traffic, mapping, opts)
	if err != nil {
		return fabric{}, nil, err
	}
	placement, err = f.annealWIs(quads, placement, opts)
	return f, placement, err
}

// annealWIs runs the WI-placement annealing of strategy A from start and
// returns the placement with the lowest traffic-weighted hop count seen.
func (f fabric) annealWIs(quads [][]int, start [][]int, opts Options) ([][]int, error) {
	minHopAnneals.Add(1)
	rng := rand.New(rand.NewSource(opts.Seed + 1))
	placement := start
	bestHops, err := f.score(placement, opts)
	if err != nil {
		return nil, err
	}
	cur := clonePlacement(placement)
	curHops := bestHops
	for sweep := 0; sweep < opts.WISweeps; sweep++ {
		// propose: move one WI to a random other switch in its quadrant
		q := rng.Intn(len(cur))
		slot := rng.Intn(len(cur[q]))
		cand := quads[q][rng.Intn(len(quads[q]))]
		if containsWI(cur, cand) {
			continue
		}
		old := cur[q][slot]
		cur[q][slot] = cand
		hops, err := f.score(cur, opts)
		if err != nil {
			cur[q][slot] = old
			continue
		}
		// accept improvements; mild tolerance early on
		temp := 0.05 * float64(opts.WISweeps-sweep) / float64(opts.WISweeps)
		if hops < curHops || rng.Float64() < math.Exp((curHops-hops)/max(temp, 1e-9)) {
			curHops = hops
			if hops < bestHops {
				bestHops = hops
				placement = clonePlacement(cur)
			}
		} else {
			cur[q][slot] = old
		}
	}
	return placement, nil
}

// fabric is the placement-independent part of a WiNoC: the thread mapping,
// the switch-level traffic it induces and the small-world wireline fabric
// whose inter-cluster links that traffic apportions. Only the WIs remain
// to be placed.
type fabric struct {
	mapping       Mapping
	switchTraffic [][]float64
	wire          *topo.Topology
}

// newFabric maps the thread traffic onto switches and builds the wireline
// fabric over the island regions quads.
func newFabric(chip platform.Chip, quads [][]int, traffic [][]float64, mapping Mapping, opts Options) (fabric, error) {
	switchTraffic := MapTraffic(traffic, mapping)
	swCfg := opts.SmallWorld
	swCfg.InterTraffic = ClusterTraffic(switchTraffic, topo.RegionOf(chip.NumCores(), quads), len(quads))
	wire, err := topo.SmallWorldRegions(chip, quads, swCfg)
	if err != nil {
		return fabric{}, err
	}
	return fabric{mapping: mapping, switchTraffic: switchTraffic, wire: wire}, nil
}

// score returns the traffic-weighted average hop count of a WI placement
// overlaid on a copy of the fabric, without building the route table.
func (f fabric) score(placement [][]int, opts Options) (float64, error) {
	tp, err := topo.WithWireless(f.wire, placement)
	if err != nil {
		return 0, err
	}
	return noc.RoutedAvgHops(tp, opts.Costs, opts.Routing, f.switchTraffic)
}

// realize overlays the WIs on a copy of the fabric and builds the routes:
// the deterministic tail of both strategies and of Realize.
// AvgWeightedHops is read off the built table, which is bit-identical to
// the annealer's path-free score of the same placement (noc.RoutedAvgHops).
func (f fabric) realize(placement [][]int, opts Options) (Result, error) {
	tp, err := topo.WithWireless(f.wire, placement)
	if err != nil {
		return Result{}, err
	}
	rt, err := noc.BuildRoutes(tp, opts.Costs, opts.Routing)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Mapping:         f.mapping,
		WIPlacement:     placement,
		Topology:        tp,
		Routes:          rt,
		SwitchTraffic:   f.switchTraffic,
		AvgWeightedHops: rt.AvgHops(f.switchTraffic),
	}, nil
}

// Realize rebuilds the WiNoC a placement determines — switch traffic,
// wireline fabric, WI overlay and routes — without planning it. The result
// equals the strategy's own whenever p is that strategy's Placement for
// the same inputs, because both run the same realization. p is checked
// first (see Placement): a placement that does not fit assign is an error.
func Realize(chip platform.Chip, assign []int, traffic [][]float64, p Placement, opts Options) (Result, error) {
	if err := checkInputs(assign, traffic, chip.NumCores()); err != nil {
		return Result{}, err
	}
	quads, err := regionsFor(chip, assign)
	if err != nil {
		return Result{}, err
	}
	mapping, err := p.check(assign, quads)
	if err != nil {
		return Result{}, err
	}
	f, err := newFabric(chip, quads, traffic, mapping, opts)
	if err != nil {
		return Result{}, err
	}
	return f.realize(clonePlacement(p.WIs), opts)
}

// MaxWirelessUtil runs strategy B: WIs at quadrant centres, threads mapped
// so the heaviest communicators sit next to their cluster's WIs.
func MaxWirelessUtil(chip platform.Chip, assign []int, traffic [][]float64, opts Options) (Result, error) {
	mapping, placement, quads, err := planMaxWireless(chip, assign, traffic, opts)
	if err != nil {
		return Result{}, err
	}
	f, err := newFabric(chip, quads, traffic, mapping, opts)
	if err != nil {
		return Result{}, err
	}
	return f.realize(placement, opts)
}

// PlanMaxWireless is MaxWirelessUtil's planning alone: the placement it
// realizes.
func PlanMaxWireless(chip platform.Chip, assign []int, traffic [][]float64, opts Options) (Placement, error) {
	mapping, placement, _, err := planMaxWireless(chip, assign, traffic, opts)
	if err != nil {
		return Placement{}, err
	}
	return Placement{ThreadToTile: mapping.ThreadToTile, WIs: placement}, nil
}

// planMaxWireless pins the WIs near the region centres and maps the
// threads around them; it also returns the regions.
func planMaxWireless(chip platform.Chip, assign []int, traffic [][]float64, opts Options) (Mapping, [][]int, [][]int, error) {
	n := chip.NumCores()
	if err := checkInputs(assign, traffic, n); err != nil {
		return Mapping{}, nil, nil, err
	}
	quads, err := topo.PartitionForAssign(chip, assign)
	if err != nil {
		return Mapping{}, nil, nil, err
	}
	if err := checkClusterSizes(assign, quads); err != nil {
		return Mapping{}, nil, nil, err
	}
	placement, err := RegionWIs(chip, quads)
	if err != nil {
		return Mapping{}, nil, nil, err
	}

	// Thread volume = total traffic in+out; within each cluster, the
	// highest-volume threads take the tiles closest to a WI ("logically
	// near, physically far").
	volume := make([]float64, n)
	for i, row := range traffic {
		for j, f := range row {
			volume[i] += f
			volume[j] += f
		}
	}
	clusterThreads := make([][]int, len(quads))
	for th, c := range assign {
		clusterThreads[c] = append(clusterThreads[c], th)
	}
	for _, threads := range clusterThreads {
		sort.SliceStable(threads, func(a, b int) bool {
			if volume[threads[a]] != volume[threads[b]] {
				return volume[threads[a]] > volume[threads[b]]
			}
			return threads[a] < threads[b]
		})
	}
	mapping := Mapping{ThreadToTile: make([]int, n), TileToThread: make([]int, n)}
	for q, tiles := range quads {
		threads := clusterThreads[q]
		ordered := append([]int(nil), tiles...)
		sort.SliceStable(ordered, func(a, b int) bool {
			da := distToNearestWI(chip, ordered[a], placement[q])
			db := distToNearestWI(chip, ordered[b], placement[q])
			if da != db {
				return da < db
			}
			return ordered[a] < ordered[b]
		})
		for i, th := range threads {
			mapping.ThreadToTile[th] = ordered[i]
			mapping.TileToThread[ordered[i]] = th
		}
	}
	// Locality polish: the greedy WI-proximity order scatters communicating
	// pairs, so refine with min-distance annealing while pinning the
	// hottest WIsPerCluster threads of each cluster onto their WI-adjacent
	// tiles ("logically near, physically far" is preserved; everyone else
	// regains locality).
	pinned := make([]bool, n)
	for _, threads := range clusterThreads {
		for i := 0; i < topo.WIsPerCluster && i < len(threads); i++ {
			pinned[threads[i]] = true
		}
	}
	annealPinned(chip, assign, traffic, &mapping, pinned, opts.Seed, opts.MappingSweeps)
	return mapping, placement, quads, nil
}

// annealPinned runs the min-distance annealing over the mapping, swapping
// only unpinned threads within the same cluster.
func annealPinned(chip platform.Chip, assign []int, traffic [][]float64, m *Mapping, pinned []bool, seed int64, sweeps int) {
	n := len(assign)
	rng := rand.New(rand.NewSource(seed + 7))
	dist := newHopTable(chip)
	sym := newSymTraffic(traffic)
	cost := mappingCost(traffic, *m, dist)
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
			d := swapDelta(sym, *m, dist, a, b)
			if d <= 0 || rng.Float64() < math.Exp(-d/temp) {
				applySwap(m, a, b)
				cost += d
			}
		}
		temp *= cool
	}
	// greedy polish respecting pins
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
				if swapDelta(sym, *m, dist, a, b) < -1e-12 {
					applySwap(m, a, b)
					improved = true
				}
			}
		}
	}
}

func distToNearestWI(chip platform.Chip, tile int, wis []int) int {
	best := math.MaxInt32
	for _, wi := range wis {
		if d := chip.ManhattanHops(tile, wi); d < best {
			best = d
		}
	}
	return best
}

func containsWI(placement [][]int, s int) bool {
	for _, ws := range placement {
		for _, w := range ws {
			if w == s {
				return true
			}
		}
	}
	return false
}

func clonePlacement(p [][]int) [][]int {
	out := make([][]int, len(p))
	for i := range p {
		out[i] = append([]int(nil), p[i]...)
	}
	return out
}
