// Package topo builds the network topologies the paper compares:
//
//   - the conventional 8x8 mesh NoC baseline, and
//   - the small-world wireline fabric of the WiNoC (Section 5): links laid
//     out with a power-law wiring-cost distribution (Petermann & De Los
//     Rios), an average of ⟨k⟩ = 4 connections per switch split into
//     ⟨k_intra⟩ intra-VFI-cluster and ⟨k_inter⟩ inter-cluster connections,
//     a per-switch port cap k_max, guaranteed cluster connectivity, and
//     inter-cluster link counts proportional to inter-VFI traffic;
//   - the mm-wave wireless overlay (Section 6): 12 wireless interfaces
//     (WIs), three per 16-core cluster, on three non-overlapping channels;
//     WIs sharing a channel form single-hop wireless links arbitrated by a
//     token MAC (modelled in internal/noc).
//
// Topologies are pure structure; routing, contention and energy live in
// internal/noc and internal/energy.
package topo

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"sort"

	"wivfi/internal/platform"
)

// LinkType distinguishes wireline from wireless links.
type LinkType int

const (
	Wireline LinkType = iota
	Wireless
)

// Link is one directed edge of the topology graph. Links are stored in both
// directions (the fabric is symmetric).
type Link struct {
	To       int
	Type     LinkType
	LengthMM float64 // physical length; 0 for wireless
	Channel  int     // wireless channel id; -1 for wireline
}

// Topology is a switch-level interconnect graph over the chip's tiles.
type Topology struct {
	Chip platform.Chip
	Adj  [][]Link
	// WIs lists switch ids hosting a wireless interface, and ChannelOf maps
	// each of them to its channel. Empty for pure-wireline fabrics.
	WIs       []int
	ChannelOf map[int]int
	// Name labels the topology in reports ("mesh", "winoc", ...).
	Name string
}

// NumSwitches returns the number of switches (= tiles = cores).
func (t *Topology) NumSwitches() int { return len(t.Adj) }

// Degree returns the number of inter-switch links at switch s (the local
// core port is not counted, matching the paper's ⟨k⟩ accounting).
func (t *Topology) Degree(s int) int { return len(t.Adj[s]) }

// AvgDegree returns the mean switch degree.
func (t *Topology) AvgDegree() float64 {
	var sum int
	for s := range t.Adj {
		sum += len(t.Adj[s])
	}
	return float64(sum) / float64(len(t.Adj))
}

// MaxDegree returns the maximum switch degree.
func (t *Topology) MaxDegree() int {
	var max int
	for s := range t.Adj {
		if len(t.Adj[s]) > max {
			max = len(t.Adj[s])
		}
	}
	return max
}

// HasLink reports whether a direct link a->b exists.
func (t *Topology) HasLink(a, b int) bool {
	for _, l := range t.Adj[a] {
		if l.To == b {
			return true
		}
	}
	return false
}

// addBidirectional inserts the link in both directions.
func (t *Topology) addBidirectional(a, b int, typ LinkType, lengthMM float64, channel int) {
	t.Adj[a] = append(t.Adj[a], Link{To: b, Type: typ, LengthMM: lengthMM, Channel: channel})
	t.Adj[b] = append(t.Adj[b], Link{To: a, Type: typ, LengthMM: lengthMM, Channel: channel})
}

// Connected reports whether every switch can reach every other switch.
func (t *Topology) Connected() bool {
	n := t.NumSwitches()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, l := range t.Adj[s] {
			if !seen[l.To] {
				seen[l.To] = true
				count++
				stack = append(stack, l.To)
			}
		}
	}
	return count == n
}

// Validate checks structural invariants: in-range endpoints, symmetric
// links, no self-loops, full connectivity.
func (t *Topology) Validate() error {
	n := t.NumSwitches()
	if n != t.Chip.NumCores() {
		return fmt.Errorf("topo: %d switches for %d tiles", n, t.Chip.NumCores())
	}
	for s, links := range t.Adj {
		for _, l := range links {
			if l.To < 0 || l.To >= n {
				return fmt.Errorf("topo: switch %d links to out-of-range %d", s, l.To)
			}
			if l.To == s {
				return fmt.Errorf("topo: self-loop at switch %d", s)
			}
			back := false
			for _, r := range t.Adj[l.To] {
				if r.To == s && r.Type == l.Type && r.Channel == l.Channel {
					back = true
					break
				}
			}
			if !back {
				return fmt.Errorf("topo: asymmetric link %d->%d", s, l.To)
			}
		}
	}
	if !t.Connected() {
		return fmt.Errorf("topo: graph not connected")
	}
	return nil
}

// Mesh builds the conventional 2D mesh baseline over the chip grid.
func Mesh(chip platform.Chip) *Topology {
	t := &Topology{Chip: chip, Adj: make([][]Link, chip.NumCores()), Name: "mesh", ChannelOf: map[int]int{}}
	for r := 0; r < chip.Rows; r++ {
		for c := 0; c < chip.Cols; c++ {
			id := chip.ID(r, c)
			if c+1 < chip.Cols {
				t.addBidirectional(id, chip.ID(r, c+1), Wireline, chip.TileMM, -1)
			}
			if r+1 < chip.Rows {
				t.addBidirectional(id, chip.ID(r+1, c), Wireline, chip.TileMM, -1)
			}
		}
	}
	return t
}

// Quadrants returns the four physically contiguous 4x4 tile groups that
// realize the VFI voltage domains on the 8x8 chip: quadrant 0 is top-left,
// 1 top-right, 2 bottom-left, 3 bottom-right. Threads of VFI cluster j are
// mapped onto the tiles of quadrant j (Section 6 thread mapping).
func Quadrants(chip platform.Chip) [][]int {
	if chip.Rows%2 != 0 || chip.Cols%2 != 0 {
		panic("topo: quadrants need even grid dimensions")
	}
	hr, hc := chip.Rows/2, chip.Cols/2
	quads := make([][]int, 4)
	for r := 0; r < chip.Rows; r++ {
		for c := 0; c < chip.Cols; c++ {
			q := 0
			if r >= hr {
				q += 2
			}
			if c >= hc {
				q++
			}
			quads[q] = append(quads[q], chip.ID(r, c))
		}
	}
	return quads
}

// QuadrantOf returns, for each tile, the index of its quadrant.
func QuadrantOf(chip platform.Chip) []int {
	out := make([]int, chip.NumCores())
	for q, tiles := range Quadrants(chip) {
		for _, id := range tiles {
			out[id] = q
		}
	}
	return out
}

// SmallWorldConfig parameterizes the WiNoC wireline fabric.
type SmallWorldConfig struct {
	// KIntra and KInter are ⟨k_intra⟩ and ⟨k_inter⟩; KIntra+KInter = ⟨k⟩.
	// The paper fixes ⟨k⟩ = 4 and finds (3, 1) superior to (2, 2).
	KIntra, KInter float64
	// KMax caps the number of inter-switch ports at any switch.
	KMax int
	// Alpha is the power-law exponent: link probability ∝ distance^(-Alpha).
	Alpha float64
	// InterTraffic[a][b] is the traffic between clusters a and b, used to
	// apportion inter-cluster links. A nil matrix splits links evenly.
	InterTraffic [][]float64
	// Seed makes construction deterministic.
	Seed int64
}

// DefaultSmallWorldConfig returns the configuration the paper settles on:
// (⟨k_intra⟩, ⟨k_inter⟩) = (3, 1), k_max = 7, α = 2.
func DefaultSmallWorldConfig() SmallWorldConfig {
	return SmallWorldConfig{KIntra: 3, KInter: 1, KMax: 7, Alpha: 2, Seed: 1}
}

// MinKIntra returns the smallest feasible ⟨k_intra⟩ for the given cluster
// size: a connected cluster of c switches needs c-1 links, i.e. an average
// degree of 2(c-1)/c. For the paper's 16-switch clusters this is 1.875,
// matching Section 7.2.
func MinKIntra(clusterSize int) float64 {
	return 2 * float64(clusterSize-1) / float64(clusterSize)
}

// SmallWorld builds the WiNoC wireline fabric over the chip's quadrant
// clusters — the paper's four-island layout. It requires even grid
// dimensions (so quadrants exist); other island geometries go through
// SmallWorldRegions with an explicit partition.
func SmallWorld(chip platform.Chip, cfg SmallWorldConfig) (*Topology, error) {
	if err := ValidateChip(chip); err != nil {
		return nil, err
	}
	if chip.Rows%2 != 0 || chip.Cols%2 != 0 {
		return nil, fmt.Errorf("topo: quadrants need even grid dimensions, chip is %dx%d", chip.Rows, chip.Cols)
	}
	return SmallWorldRegions(chip, Quadrants(chip), cfg)
}

// SmallWorldRegions builds the WiNoC wireline fabric over an arbitrary
// cluster partition (one region per VFI island, regions possibly unequal).
// The construction follows Section 5:
//
//  1. per cluster, a short-link-biased random spanning tree guarantees
//     connectivity, then extra intra-cluster links are sampled from the
//     power-law distribution until the cluster reaches ⟨k_intra⟩;
//  2. inter-cluster link counts are split across cluster pairs in
//     proportion to their share of inter-cluster traffic, endpoints again
//     sampled power-law;
//
// always respecting the per-switch k_max port cap.
func SmallWorldRegions(chip platform.Chip, regions [][]int, cfg SmallWorldConfig) (*Topology, error) {
	if len(regions) < 2 {
		return nil, fmt.Errorf("topo: small-world fabric needs at least 2 clusters, got %d", len(regions))
	}
	for q, tiles := range regions {
		if len(tiles) < 2 {
			return nil, fmt.Errorf("topo: cluster %d has %d tiles; small-world clusters need at least 2", q, len(tiles))
		}
		if cfg.KIntra < MinKIntra(len(tiles)) {
			return nil, fmt.Errorf("topo: k_intra %.3f below connectivity minimum %.3f for cluster %d (%d tiles)",
				cfg.KIntra, MinKIntra(len(tiles)), q, len(tiles))
		}
	}
	if cfg.KMax < 2 {
		return nil, fmt.Errorf("topo: k_max %d too small", cfg.KMax)
	}
	if cfg.Alpha <= 0 {
		return nil, fmt.Errorf("topo: alpha must be positive, got %v", cfg.Alpha)
	}
	t := &Topology{Chip: chip, Adj: make([][]Link, chip.NumCores()), Name: "winoc-wireline", ChannelOf: map[int]int{}}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Step 1: intra-cluster networks, link budget proportional to size.
	for _, tiles := range regions {
		intraLinks := int(math.Round(cfg.KIntra * float64(len(tiles)) / 2))
		if err := buildCluster(t, tiles, intraLinks, cfg, rng); err != nil {
			return nil, err
		}
	}

	// Step 2: inter-cluster links apportioned by traffic share.
	totalInter := int(math.Round(cfg.KInter * float64(chip.NumCores()) / 2))
	pairCounts := apportionInterLinks(cfg.InterTraffic, len(regions), totalInter)
	var pairs [][2]int
	for pair := range pairCounts {
		pairs = append(pairs, pair)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	for _, pair := range pairs {
		if err := addInterLinks(t, regions[pair[0]], regions[pair[1]], pairCounts[pair], cfg, rng); err != nil {
			return nil, err
		}
	}
	if !t.Connected() {
		// With at least one link per cluster pair this cannot happen, but
		// guard anyway: repair by linking cluster centroids.
		return nil, fmt.Errorf("topo: small-world construction left graph disconnected")
	}
	return t, nil
}

// buildCluster wires one cluster: spanning tree first, then power-law extras.
func buildCluster(t *Topology, tiles []int, linkBudget int, cfg SmallWorldConfig, rng *rand.Rand) error {
	// Spanning tree: grow from a random start, attaching each new node via a
	// power-law-sampled edge to the already-connected set. Tree membership
	// is kept in insertion order so construction is deterministic per seed.
	order := append([]int(nil), tiles...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	tree := make([]int, 0, len(order))
	tree = append(tree, order[0])
	links := 0
	for _, v := range order[1:] {
		// candidates: tree members with spare ports
		var cands []int
		var weights []float64
		for _, u := range tree {
			if t.Degree(u) < cfg.KMax {
				cands = append(cands, u)
				weights = append(weights, linkWeight(t.Chip, u, v, cfg.Alpha))
			}
		}
		if len(cands) == 0 {
			return fmt.Errorf("topo: no spare ports while building cluster spanning tree (k_max=%d)", cfg.KMax)
		}
		u := cands[weightedPick(rng, weights)]
		t.addBidirectional(u, v, Wireline, t.Chip.EuclideanMM(u, v), -1)
		tree = append(tree, v)
		links++
	}
	// Extra links up to the budget.
	for attempts := 0; links < linkBudget && attempts < 10000; attempts++ {
		u := tiles[rng.Intn(len(tiles))]
		v := tiles[rng.Intn(len(tiles))]
		if u == v || t.HasLink(u, v) || t.Degree(u) >= cfg.KMax || t.Degree(v) >= cfg.KMax {
			continue
		}
		if rng.Float64() < acceptProb(t.Chip, u, v, cfg.Alpha) {
			t.addBidirectional(u, v, Wireline, t.Chip.EuclideanMM(u, v), -1)
			links++
		}
	}
	return nil
}

// apportionInterLinks splits totalInter links across cluster pairs in
// proportion to inter-cluster traffic, guaranteeing at least one link per
// pair so no pair of clusters depends on a third for connectivity.
func apportionInterLinks(interTraffic [][]float64, m, totalInter int) map[[2]int]int {
	type pair struct {
		a, b int
		w    float64
	}
	var pairs []pair
	var totalW float64
	for a := 0; a < m; a++ {
		for b := a + 1; b < m; b++ {
			w := 1.0
			if interTraffic != nil {
				w = interTraffic[a][b] + interTraffic[b][a]
			}
			pairs = append(pairs, pair{a, b, w})
			totalW += w
		}
	}
	counts := map[[2]int]int{}
	if totalW == 0 {
		totalW = float64(len(pairs))
		for i := range pairs {
			pairs[i].w = 1
		}
	}
	assigned := 0
	for _, p := range pairs {
		c := int(math.Floor(p.w / totalW * float64(totalInter)))
		if c < 1 {
			c = 1
		}
		counts[[2]int{p.a, p.b}] = c
		assigned += c
	}
	// Distribute any remainder to the heaviest pairs, deterministically.
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].w != pairs[j].w {
			return pairs[i].w > pairs[j].w
		}
		if pairs[i].a != pairs[j].a {
			return pairs[i].a < pairs[j].a
		}
		return pairs[i].b < pairs[j].b
	})
	for i := 0; assigned < totalInter; i = (i + 1) % len(pairs) {
		counts[[2]int{pairs[i].a, pairs[i].b}]++
		assigned++
	}
	return counts
}

// addInterLinks adds count links between two clusters, endpoints sampled
// with the power-law acceptance rule under the port cap.
func addInterLinks(t *Topology, tilesA, tilesB []int, count int, cfg SmallWorldConfig, rng *rand.Rand) error {
	added := 0
	for attempts := 0; added < count && attempts < 20000; attempts++ {
		u := tilesA[rng.Intn(len(tilesA))]
		v := tilesB[rng.Intn(len(tilesB))]
		if t.HasLink(u, v) || t.Degree(u) >= cfg.KMax || t.Degree(v) >= cfg.KMax {
			continue
		}
		if rng.Float64() < acceptProb(t.Chip, u, v, cfg.Alpha) {
			t.addBidirectional(u, v, Wireline, t.Chip.EuclideanMM(u, v), -1)
			added++
		}
	}
	if added == 0 && count > 0 {
		return fmt.Errorf("topo: could not place any inter-cluster link (port caps too tight)")
	}
	return nil
}

// linkWeight returns the unnormalized power-law probability weight for a
// link between tiles u and v.
func linkWeight(chip platform.Chip, u, v int, alpha float64) float64 {
	d := chip.EuclideanMM(u, v) / chip.TileMM // in tile units, >= 1
	if d < 1 {
		d = 1
	}
	return math.Pow(d, -alpha)
}

// acceptProb is linkWeight normalized to at most 1 (distance of one tile).
func acceptProb(chip platform.Chip, u, v int, alpha float64) float64 {
	return linkWeight(chip, u, v, alpha)
}

// weightedPick returns an index sampled in proportion to weights.
func weightedPick(rng *rand.Rand, weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total == 0 {
		return rng.Intn(len(weights))
	}
	x := rng.Float64() * total
	for i, w := range weights {
		x -= w
		if x <= 0 {
			return i
		}
	}
	return len(weights) - 1
}

// DisableWI removes the wireless interface at switch s — all of its
// wireless links disappear and the switch reverts to a plain wireline
// switch. mm-wave transceivers are the least mature component of a WiNoC,
// so graceful degradation under WI failure is a standard robustness
// question (the wireline small-world fabric keeps the network connected by
// construction). Returns an error when s hosts no WI.
func DisableWI(t *Topology, s int) error {
	if _, ok := t.ChannelOf[s]; !ok {
		return fmt.Errorf("topo: switch %d hosts no wireless interface", s)
	}
	// drop wireless links incident to s everywhere
	for u := range t.Adj {
		kept := t.Adj[u][:0]
		for _, l := range t.Adj[u] {
			if l.Type == Wireless && (u == s || l.To == s) {
				continue
			}
			kept = append(kept, l)
		}
		t.Adj[u] = kept
	}
	delete(t.ChannelOf, s)
	wis := t.WIs[:0]
	for _, w := range t.WIs {
		if w != s {
			wis = append(wis, w)
		}
	}
	t.WIs = wis
	return nil
}

// NumChannels is the number of non-overlapping mm-wave channels available
// on-chip (Deb et al. 2013 demonstrate three).
const NumChannels = 3

// WIsPerCluster is the number of wireless interfaces per VFI cluster: one
// per channel, giving the optimum total of 12 WIs for a 64-core system
// (Wettin et al. 2013).
const WIsPerCluster = NumChannels

// WithWireless returns a copy of the wireline fabric wire with the
// wireless overlay of placement added (see AddWireless), leaving wire
// unchanged. The fabric does not depend on where the WIs go, so callers
// that try many placements — WI-placement annealing, the WI-failure
// study — build it once and overlay each placement on a fresh copy.
func WithWireless(wire *Topology, placement [][]int) (*Topology, error) {
	t := wire.clone()
	if err := AddWireless(t, placement); err != nil {
		return nil, err
	}
	return t, nil
}

// clone returns a deep copy of t: adjacency rows, WI list and channel map
// are all fresh, so mutating the copy (AddWireless, DisableWI) never
// touches t. The rows share one backing array, each capped at its length
// so an append to one row reallocates it rather than overrunning the next.
func (t *Topology) clone() *Topology {
	c := &Topology{
		Chip:      t.Chip,
		Adj:       make([][]Link, len(t.Adj)),
		WIs:       append([]int(nil), t.WIs...),
		ChannelOf: make(map[int]int, len(t.ChannelOf)),
		Name:      t.Name,
	}
	total := 0
	for _, links := range t.Adj {
		total += len(links)
	}
	buf := make([]Link, total)
	for u, links := range t.Adj {
		k := copy(buf, links)
		c.Adj[u], buf = buf[:k:k], buf[k:]
	}
	maps.Copy(c.ChannelOf, t.ChannelOf)
	return c
}

// AddWireless overlays wireless interfaces on the topology. placement maps
// cluster index -> the WIsPerCluster switch ids receiving a WI; the i-th WI
// of every cluster is tuned to channel i, so each channel connects exactly
// one WI per cluster. WIs sharing a channel are linked pairwise (single-hop
// mm-wave links); the token MAC serializing those links is modelled in
// internal/noc.
func AddWireless(t *Topology, placement [][]int) error {
	if len(t.WIs) > 0 {
		return fmt.Errorf("topo: topology already has wireless interfaces")
	}
	byChannel := make([][]int, NumChannels)
	seen := map[int]bool{}
	for cluster, switches := range placement {
		if len(switches) != WIsPerCluster {
			return fmt.Errorf("topo: cluster %d has %d WIs, want %d", cluster, len(switches), WIsPerCluster)
		}
		for ch, s := range switches {
			if s < 0 || s >= t.NumSwitches() {
				return fmt.Errorf("topo: WI switch %d out of range", s)
			}
			if seen[s] {
				return fmt.Errorf("topo: switch %d hosts two WIs", s)
			}
			seen[s] = true
			byChannel[ch] = append(byChannel[ch], s)
			t.WIs = append(t.WIs, s)
			t.ChannelOf[s] = ch
		}
	}
	for ch, members := range byChannel {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				t.addBidirectional(members[i], members[j], Wireless, 0, ch)
			}
		}
	}
	sort.Ints(t.WIs)
	t.Name = "winoc"
	return nil
}
