// Package noc evaluates interconnect performance and energy on the
// topologies built by internal/topo. It provides:
//
//   - deterministic routing tables in three modes: unconstrained shortest
//     path (Dijkstra), XY dimension-order (minimal and deadlock-free on the
//     mesh), and up*/down* (deadlock-free on arbitrary graphs, used for the
//     irregular small-world WiNoC — constrained shortest path over a BFS
//     spanning tree);
//   - an analytic model (latency = routed path cycles inflated by an M/D/1
//     style contention factor per link, plus wormhole serialization) used
//     for full-application sweeps;
//   - a cycle-accurate flit-level wormhole discrete simulator with finite
//     input buffers, credit flow control, round-robin output arbitration
//     and a token-passing MAC serializing each mm-wave wireless channel,
//     used to validate the analytic model and to study the network in
//     isolation.
//
// Latency is expressed in network-clock cycles and energy in picojoules,
// with per-flit energies supplied by internal/energy.
package noc

import (
	"fmt"
	"math"

	"wivfi/internal/energy"
	"wivfi/internal/topo"
)

// LinkCosts holds the per-hop cycle costs used both for route selection and
// for base (uncontended) latency accounting.
type LinkCosts struct {
	// RouterCycles is the switch pipeline depth (buffer write, route
	// compute, arbitration, crossbar traversal).
	RouterCycles float64
	// WireCyclesPerMM converts wireline length to traversal cycles; one
	// tile (2.5 mm) lands at one cycle.
	WireCyclesPerMM float64
	// WirelessCycles is the single-hop air time of a wireless flit.
	WirelessCycles float64
	// WirelessTokenPenalty is the extra average cost routing should assume
	// for a wireless hop due to the shared-channel token MAC. It biases
	// path selection; actual waiting is modelled by contention (analytic)
	// or the token rotation itself (DES).
	WirelessTokenPenalty float64
}

// DefaultLinkCosts returns costs for the paper's 65 nm platform: a 4-cycle
// router pipeline (buffer write, route/VC compute, switch allocation,
// crossbar traversal — the canonical wormhole pipeline at a 2.5 GHz network
// clock), one cycle per 2.5 mm tile of wire, and single-cycle wireless hops
// carrying a two-cycle average token bias.
func DefaultLinkCosts() LinkCosts {
	return LinkCosts{
		RouterCycles:         4,
		WireCyclesPerMM:      0.4,
		WirelessCycles:       1,
		WirelessTokenPenalty: 2,
	}
}

// linkCost returns the routing cost in cycles of traversing l.
func (lc LinkCosts) linkCost(l topo.Link) float64 {
	if l.Type == topo.Wireless {
		return lc.RouterCycles + lc.WirelessCycles + lc.WirelessTokenPenalty
	}
	return lc.RouterCycles + lc.WireCyclesPerMM*l.LengthMM
}

// baseLatency returns the uncontended traversal cycles of l (no routing
// bias terms).
func (lc LinkCosts) baseLatency(l topo.Link) float64 {
	if l.Type == topo.Wireless {
		return lc.RouterCycles + lc.WirelessCycles
	}
	return lc.RouterCycles + lc.WireCyclesPerMM*l.LengthMM
}

// RoutingMode selects the route-construction algorithm.
type RoutingMode int

const (
	// Shortest is unconstrained Dijkstra. Minimal, but its channel
	// dependency graph may be cyclic on irregular topologies — use it for
	// analytic studies, not for wormhole simulation of the WiNoC.
	Shortest RoutingMode = iota
	// XY is dimension-order routing (column first, then row). Only valid
	// on the mesh; minimal and deadlock-free.
	XY
	// UpDown is up*/down* routing over a BFS spanning tree rooted at
	// switch 0: every route climbs zero or more "up" links before
	// descending zero or more "down" links, which makes the channel
	// dependency graph acyclic on any connected graph. Paths are the
	// shortest ones satisfying the constraint.
	UpDown
)

func (m RoutingMode) String() string {
	switch m {
	case Shortest:
		return "shortest"
	case XY:
		return "xy"
	case UpDown:
		return "updown"
	default:
		return fmt.Sprintf("RoutingMode(%d)", int(m))
	}
}

// RouteTable holds one deterministic route (a sequence of adjacency
// indices) for every ordered switch pair.
type RouteTable struct {
	topo  *topo.Topology
	costs LinkCosts
	mode  RoutingMode
	// paths[src][dst] is the list of adjacency indices: the k-th entry is
	// the index into topo.Adj[cur] of the k-th link, where cur is the
	// switch reached after k-1 hops. Empty when src == dst.
	paths [][][]int
}

// Topology returns the routed topology.
func (rt *RouteTable) Topology() *topo.Topology { return rt.topo }

// Mode returns the routing mode the table was built with.
func (rt *RouteTable) Mode() RoutingMode { return rt.mode }

// Costs returns the link cost model of the table.
func (rt *RouteTable) Costs() LinkCosts { return rt.costs }

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	state int
	cost  float64
}

// pqLess orders the Dijkstra frontier by (cost, state). Items equal under
// this order carry the same state, so they are interchangeable: whichever
// pops first marks the state done and the duplicate is skipped. Any
// min-heap therefore yields the same Dijkstra execution, which lets the
// heap be a hand-rolled monomorphic one (container/heap boxed every push
// and pop through interface{}, a measurable cost at route-build time).
func pqLess(a, b pqItem) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	return a.state < b.state
}

func pqPush(q []pqItem, it pqItem) []pqItem {
	q = append(q, it)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !pqLess(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	return q
}

func pqPop(q []pqItem) (pqItem, []pqItem) {
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && pqLess(q[r], q[c]) {
			c = r
		}
		if !pqLess(q[c], q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	return top, q
}

// dijkstraScratch holds the per-source working arrays so an all-pairs
// route build allocates them once instead of once per source.
type dijkstraScratch struct {
	dist                []float64
	prevState, prevLink []int
	done                []bool
	heap                []pqItem
	rev                 []int
}

// BuildRoutes computes routes for every ordered pair under the given mode.
func BuildRoutes(t *topo.Topology, costs LinkCosts, mode RoutingMode) (*RouteTable, error) {
	return buildRoutesWithCost(t, costs, mode, nil)
}

// buildRoutesWithCost is BuildRoutes with an optional per-link cost
// override used by congestion-aware refinement.
func buildRoutesWithCost(t *topo.Topology, costs LinkCosts, mode RoutingMode, costFn func(u, ai int) float64) (*RouteTable, error) {
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("noc: invalid topology: %w", err)
	}
	rt := &RouteTable{topo: t, costs: costs, mode: mode}
	n := t.NumSwitches()
	rt.paths = make([][][]int, n)
	switch mode {
	case XY:
		if err := rt.buildXY(); err != nil {
			return nil, err
		}
	case Shortest:
		var scr dijkstraScratch
		for src := 0; src < n; src++ {
			rt.paths[src] = rt.dijkstra(src, nil, costFn, &scr)
		}
	case UpDown:
		up := upDirections(t)
		var scr dijkstraScratch
		for src := 0; src < n; src++ {
			rt.paths[src] = rt.dijkstra(src, up, costFn, &scr)
		}
	default:
		return nil, fmt.Errorf("noc: unknown routing mode %d", mode)
	}
	// sanity: every pair routed
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src != dst && rt.paths[src][dst] == nil {
				return nil, fmt.Errorf("noc: no %v route %d -> %d", mode, src, dst)
			}
		}
	}
	return rt, nil
}

// buildXY fills dimension-order routes; the topology must be the mesh.
func (rt *RouteTable) buildXY() error {
	t := rt.topo
	chip := t.Chip
	n := t.NumSwitches()
	findLink := func(from, to int) (int, error) {
		for ai, l := range t.Adj[from] {
			if l.To == to && l.Type == topo.Wireline {
				return ai, nil
			}
		}
		return 0, fmt.Errorf("noc: XY routing needs mesh link %d -> %d", from, to)
	}
	for src := 0; src < n; src++ {
		// Every XY route is exactly Manhattan-distance long, so one backing
		// slice holds all of src's routes. Each route is a capped subslice:
		// PathAdjIndices hands them out, and an append by a caller must not
		// run into the next route.
		total := 0
		for dst := 0; dst < n; dst++ {
			total += chip.ManhattanHops(src, dst)
		}
		buf := make([]int, total)
		rt.paths[src] = make([][]int, n)
		off := 0
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			end := off + chip.ManhattanHops(src, dst)
			path := buf[off:off:end]
			off = end
			cur := src
			for cur != dst {
				cr, cc := chip.Coord(cur)
				dr, dc := chip.Coord(dst)
				var next int
				switch {
				case cc < dc:
					next = chip.ID(cr, cc+1)
				case cc > dc:
					next = chip.ID(cr, cc-1)
				case cr < dr:
					next = chip.ID(cr+1, cc)
				default:
					next = chip.ID(cr-1, cc)
				}
				ai, err := findLink(cur, next)
				if err != nil {
					return err
				}
				path = append(path, ai)
				cur = next
			}
			rt.paths[src][dst] = path
		}
	}
	return nil
}

// upDirections classifies every directed link as "up" (true) or "down"
// (false) using BFS levels from switch 0, ties broken by lower id. The
// result is indexed [from][adjacencyIndex].
func upDirections(t *topo.Topology) [][]bool {
	n := t.NumSwitches()
	level := make([]int, n)
	for i := range level {
		level[i] = -1
	}
	level[0] = 0
	queue := []int{0}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, l := range t.Adj[u] {
			if level[l.To] == -1 {
				level[l.To] = level[u] + 1
				queue = append(queue, l.To)
			}
		}
	}
	up := make([][]bool, n)
	for u := range t.Adj {
		up[u] = make([]bool, len(t.Adj[u]))
		for ai, l := range t.Adj[u] {
			v := l.To
			up[u][ai] = level[v] < level[u] || (level[v] == level[u] && v < u)
		}
	}
	return up
}

// search runs the constrained shortest-path search from src, leaving the
// final dist/prevState/prevLink arrays in scr and returning the number of
// search states. With up == nil the search is unconstrained; otherwise the
// up*/down* rule applies: state 0 may take up or down links (down
// transitions to state 1), state 1 may only take down links. States are
// encoded as node + phase*n. costFn, when non-nil, overrides the static link
// cost (congestion-aware refinement). It is the one relax loop behind both
// dijkstra (which extracts paths) and RoutedAvgHops (which only counts
// hops), so the two cannot disagree on a tie.
func search(t *topo.Topology, costs LinkCosts, src int, up [][]bool, costFn func(u, ai int) float64, scr *dijkstraScratch) int {
	n := t.NumSwitches()
	numStates := n
	if up != nil {
		numStates = 2 * n
	}
	if cap(scr.dist) < numStates {
		scr.dist = make([]float64, numStates)
		scr.prevState = make([]int, numStates)
		scr.prevLink = make([]int, numStates)
		scr.done = make([]bool, numStates)
	}
	dist := scr.dist[:numStates]
	prevState := scr.prevState[:numStates]
	prevLink := scr.prevLink[:numStates]
	done := scr.done[:numStates]
	for i := range dist {
		dist[i] = math.Inf(1)
		prevState[i] = -1
		prevLink[i] = -1
		done[i] = false
	}
	dist[src] = 0 // phase 0
	q := append(scr.heap[:0], pqItem{state: src})
	for len(q) > 0 {
		var it pqItem
		it, q = pqPop(q)
		s := it.state
		if done[s] {
			continue
		}
		done[s] = true
		node, phase := s%n, s/n
		for ai, l := range t.Adj[node] {
			var nextPhase int
			if up != nil {
				if up[node][ai] {
					if phase == 1 {
						continue // cannot go up after going down
					}
					nextPhase = 0
				} else {
					nextPhase = 1
				}
			}
			ns := l.To + nextPhase*n
			lc := costs.linkCost(l)
			if costFn != nil {
				lc = costFn(node, ai)
			}
			c := dist[s] + lc
			if c < dist[ns]-1e-12 ||
				(math.Abs(c-dist[ns]) <= 1e-12 && prevState[ns] != -1 &&
					(s < prevState[ns] || (s == prevState[ns] && ai < prevLink[ns]))) {
				dist[ns] = c
				prevState[ns] = s
				prevLink[ns] = ai
				q = pqPush(q, pqItem{state: ns, cost: c})
			}
		}
	}
	scr.heap = q[:0]
	return numStates
}

// terminal returns the search state that ends the route to dst after a
// search: the cheaper of the two up*/down* phases, phase 0 on a tie. It
// returns -1 when dst is unreachable.
func (scr *dijkstraScratch) terminal(dst, n, numStates int) int {
	best := dst
	if numStates > n && scr.dist[dst+n] < scr.dist[best] {
		best = dst + n
	}
	if math.IsInf(scr.dist[best], 1) {
		return -1
	}
	return best
}

// dijkstra computes the routes from src (see search), as adjacency-index
// paths.
func (rt *RouteTable) dijkstra(src int, up [][]bool, costFn func(u, ai int) float64, scr *dijkstraScratch) [][]int {
	n := rt.topo.NumSwitches()
	numStates := search(rt.topo, rt.costs, src, up, costFn, scr)
	paths := make([][]int, n)
	for dst := 0; dst < n; dst++ {
		if dst == src {
			continue
		}
		best := scr.terminal(dst, n, numStates)
		if best < 0 {
			continue // caller reports the error
		}
		rev := scr.rev[:0]
		for s := best; s != src; s = scr.prevState[s] {
			rev = append(rev, scr.prevLink[s])
		}
		scr.rev = rev
		path := make([]int, len(rev))
		for i := range rev {
			path[i] = rev[len(rev)-1-i]
		}
		paths[dst] = path
	}
	return paths
}

// RoutedAvgHops returns BuildRoutes(t, costs, mode).AvgHops(traffic)
// without materializing the route table: each source's search tree is
// walked back from every destination to count hops, so no path slices are
// built. It is the scoring kernel of WI-placement annealing, which reads
// only the weighted hop count of each proposal. The topology is validated
// and every pair must be routable, exactly as BuildRoutes requires; the
// result is bit-identical because the search, the tie-break and the
// accumulation order are the same.
func RoutedAvgHops(t *topo.Topology, costs LinkCosts, mode RoutingMode, traffic [][]float64) (float64, error) {
	var up [][]bool
	switch mode {
	case Shortest:
	case UpDown:
		up = upDirections(t)
	default:
		rt, err := BuildRoutes(t, costs, mode)
		if err != nil {
			return 0, err
		}
		return rt.AvgHops(traffic), nil
	}
	if err := t.Validate(); err != nil {
		return 0, fmt.Errorf("noc: invalid topology: %w", err)
	}
	n := t.NumSwitches()
	var scr dijkstraScratch
	var num, den float64
	for src := 0; src < n; src++ {
		numStates := search(t, costs, src, up, nil, &scr)
		for dst := 0; dst < n; dst++ {
			if dst == src {
				continue
			}
			best := scr.terminal(dst, n, numStates)
			if best < 0 {
				return 0, fmt.Errorf("noc: no %v route %d -> %d", mode, src, dst)
			}
			hops := 0
			for s := best; s != src; s = scr.prevState[s] {
				hops++
			}
			w := 1.0
			if traffic != nil {
				w = traffic[src][dst]
			}
			num += w * float64(hops)
			den += w
		}
	}
	if den == 0 {
		return 0, nil
	}
	return num / den, nil
}

// RefineRoutes rebuilds the route table with congestion-aware link costs:
// starting from the given table, each iteration measures the per-link (and
// per-wireless-channel) load the traffic matrix induces on the current
// routes, inflates every link's cost by an M/D/1 waiting factor, and
// re-solves the (mode-constrained) shortest paths. This models the
// per-application routing-table configuration an irregular NoC performs:
// hot links — saturated wireless channels, the up*/down* root — shed load
// to colder alternatives. XY tables are returned unchanged (dimension-order
// routing is oblivious by construction).
func RefineRoutes(rt *RouteTable, traffic [][]float64, iterations int, maxUtil float64) (*RouteTable, error) {
	if rt.mode == XY || iterations <= 0 {
		return rt, nil
	}
	if maxUtil <= 0 || maxUtil >= 1 {
		return nil, fmt.Errorf("noc: bad max utilization %v", maxUtil)
	}
	t := rt.topo
	n := t.NumSwitches()
	cur := rt
	for it := 0; it < iterations; it++ {
		// measure loads on the current routes
		linkLoad := newLinkLoads(t)
		channelLoad := make([]float64, topo.NumChannels)
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				f := traffic[s][d]
				if f == 0 || s == d {
					continue
				}
				node := s
				for _, ai := range cur.paths[s][d] {
					l := t.Adj[node][ai]
					linkLoad[node][ai] += f
					if l.Type == topo.Wireless {
						channelLoad[l.Channel] += f
					}
					node = l.To
				}
			}
		}
		costFn := func(u, ai int) float64 {
			l := t.Adj[u][ai]
			base := cur.costs.linkCost(l)
			rho := linkLoad[u][ai]
			if l.Type == topo.Wireless {
				rho = channelLoad[l.Channel]
			}
			if rho > maxUtil {
				rho = maxUtil
			}
			return base / (1 - rho)
		}
		next, err := buildRoutesWithCost(t, cur.costs, cur.mode, costFn)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

// newLinkLoads returns zeroed per-link accumulators indexed
// [from][adjacency index], all rows carved from one backing array.
func newLinkLoads(t *topo.Topology) [][]float64 {
	total := 0
	for _, links := range t.Adj {
		total += len(links)
	}
	buf := make([]float64, total)
	loads := make([][]float64, len(t.Adj))
	for u, links := range t.Adj {
		loads[u], buf = buf[:len(links):len(links)], buf[len(links):]
	}
	return loads
}

// PathAdjIndices returns the route from src to dst as adjacency indices
// (shared storage; callers must not mutate).
func (rt *RouteTable) PathAdjIndices(src, dst int) []int { return rt.paths[src][dst] }

// Hops returns the hop count of the src->dst route (0 when src == dst).
func (rt *RouteTable) Hops(src, dst int) int { return len(rt.paths[src][dst]) }

// Path returns the switch sequence of the route from src to dst, inclusive
// of both endpoints.
func (rt *RouteTable) Path(src, dst int) []int {
	path := []int{src}
	cur := src
	for _, ai := range rt.paths[src][dst] {
		cur = rt.topo.Adj[cur][ai].To
		path = append(path, cur)
	}
	return path
}

// PathLinks returns the sequence of links along the route from src to dst.
func (rt *RouteTable) PathLinks(src, dst int) []topo.Link {
	var links []topo.Link
	cur := src
	for _, ai := range rt.paths[src][dst] {
		l := rt.topo.Adj[cur][ai]
		links = append(links, l)
		cur = l.To
	}
	return links
}

// PathEnergyPJ returns the per-flit energy of the src->dst route under the
// network energy model: one switch traversal per hop plus the destination
// ejection port, plus link energies. It walks the stored route in place —
// no PathLinks slice — because the phase-energy loop in internal/sim calls
// it once per routed pair per phase.
func (rt *RouteTable) PathEnergyPJ(src, dst int, nm energy.NetworkModel) float64 {
	if src == dst {
		return 0
	}
	var pj float64
	cur := src
	for _, ai := range rt.paths[src][dst] {
		l := rt.topo.Adj[cur][ai]
		if l.Type == topo.Wireless {
			pj += nm.WirelessHopPJ()
		} else {
			pj += nm.WirelineHopPJ(l.LengthMM)
		}
		cur = l.To
	}
	pj += nm.SwitchPJPerFlitPort
	return pj
}

// RouteCostCycles returns the total routing cost (the objective Dijkstra
// minimizes, including the wireless token bias) of the src->dst route.
func (rt *RouteTable) RouteCostCycles(src, dst int) float64 {
	var cycles float64
	cur := src
	for _, ai := range rt.paths[src][dst] {
		l := rt.topo.Adj[cur][ai]
		cycles += rt.costs.linkCost(l)
		cur = l.To
	}
	return cycles
}

// BaseLatencyCycles returns the uncontended head-flit latency of the route.
func (rt *RouteTable) BaseLatencyCycles(src, dst int) float64 {
	var cycles float64
	cur := src
	for _, ai := range rt.paths[src][dst] {
		l := rt.topo.Adj[cur][ai]
		cycles += rt.costs.baseLatency(l)
		cur = l.To
	}
	return cycles
}

// AvgHops returns the traffic-weighted mean hop count for a traffic matrix
// (any non-negative weights). With a nil matrix it returns the uniform
// all-pairs average.
func (rt *RouteTable) AvgHops(traffic [][]float64) float64 {
	n := rt.topo.NumSwitches()
	var num, den float64
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			w := 1.0
			if traffic != nil {
				w = traffic[s][d]
			}
			num += w * float64(rt.Hops(s, d))
			den += w
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}
