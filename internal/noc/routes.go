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
// search allocates them once instead of once per source.
type dijkstraScratch struct {
	dist                []float64
	prevState, prevEdge []int
	done                []bool
	heap                []pqItem
}

// BuildRoutes computes routes for every ordered pair under the given mode.
func BuildRoutes(t *topo.Topology, costs LinkCosts, mode RoutingMode) (*RouteTable, error) {
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("noc: invalid topology: %w", err)
	}
	rt := &RouteTable{topo: t, costs: costs, mode: mode}
	rt.paths = make([][][]int, t.NumSwitches())
	switch mode {
	case XY:
		if err := rt.buildXY(); err != nil {
			return nil, err
		}
	case Shortest, UpDown:
		g := newGraph(t, costs, mode)
		if err := rt.solve(g, g.cost); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("noc: unknown routing mode %d", mode)
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

// graph is a topology flattened for route search, in compressed sparse
// row form: the links of switch u are entries off[u] to off[u+1]-1 in
// adjacency order, so entry e of u is adjacency index e-off[u]. It is
// built once per routing call.
type graph struct {
	n   int
	off []int
	to  []int
	// cost is the static routing cost of each entry (LinkCosts.linkCost).
	cost []float64
	// channel is the wireless channel of each entry, -1 for wireline.
	channel []int
	// up is the up*/down* direction of each entry (see newGraph); nil for
	// unconstrained search.
	up []bool
}

// newGraph flattens a validated topology for search under mode (Shortest
// or UpDown). For UpDown every entry is classified as "up" or "down" from
// BFS levels rooted at switch 0, ties broken by lower id.
func newGraph(t *topo.Topology, costs LinkCosts, mode RoutingMode) *graph {
	n := t.NumSwitches()
	g := &graph{n: n, off: make([]int, n+1)}
	for u, links := range t.Adj {
		g.off[u+1] = g.off[u] + len(links)
	}
	m := g.off[n]
	g.to = make([]int, m)
	g.cost = make([]float64, m)
	g.channel = make([]int, m)
	for u, links := range t.Adj {
		for ai, l := range links {
			e := g.off[u] + ai
			g.to[e] = l.To
			g.cost[e] = costs.linkCost(l)
			g.channel[e] = -1
			if l.Type == topo.Wireless {
				g.channel[e] = l.Channel
			}
		}
	}
	if mode != UpDown {
		return g
	}
	level := make([]int, n)
	for i := range level {
		level[i] = -1
	}
	level[0] = 0
	queue := append(make([]int, 0, n), 0)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.to[g.off[u]:g.off[u+1]] {
			if level[v] == -1 {
				level[v] = level[u] + 1
				queue = append(queue, v)
			}
		}
	}
	g.up = make([]bool, m)
	for u := 0; u < n; u++ {
		for e := g.off[u]; e < g.off[u+1]; e++ {
			v := g.to[e]
			g.up[e] = level[v] < level[u] || (level[v] == level[u] && v < u)
		}
	}
	return g
}

// search runs the constrained shortest-path search from src over g with
// per-entry link costs cost, leaving the final dist/prevState/prevEdge
// arrays in scr and returning the number of search states. With g.up ==
// nil the search is unconstrained; otherwise the up*/down* rule applies:
// phase 0 may take up or down links (down moves to phase 1), phase 1 may
// only take down links. States are encoded as node + phase*n. prevEdge
// holds graph entries; entries of one node share its offset, so comparing
// them in the tie-break compares adjacency indices. It is the one relax
// loop behind BuildRoutes, RefineRoutes and RoutedAvgHops, so none of
// them can disagree with another on a tie.
func search(g *graph, cost []float64, src int, scr *dijkstraScratch) int {
	n := g.n
	numStates := n
	if g.up != nil {
		numStates = 2 * n
	}
	if cap(scr.dist) < numStates {
		scr.dist = make([]float64, numStates)
		scr.prevState = make([]int, numStates)
		scr.prevEdge = make([]int, numStates)
		scr.done = make([]bool, numStates)
	}
	dist := scr.dist[:numStates]
	prevState := scr.prevState[:numStates]
	prevEdge := scr.prevEdge[:numStates]
	done := scr.done[:numStates]
	for i := range dist {
		dist[i] = math.Inf(1)
		prevState[i] = -1
		prevEdge[i] = -1
		done[i] = false
	}
	up := g.up
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
		node, descended := s, false
		if s >= n {
			node, descended = s-n, true
		}
		ds := dist[s]
		for e, end := g.off[node], g.off[node+1]; e < end; e++ {
			ns := g.to[e]
			if up != nil {
				if up[e] {
					if descended {
						continue // cannot go up after going down
					}
				} else {
					ns += n
				}
			}
			c := ds + cost[e]
			if c < dist[ns]-1e-12 ||
				(math.Abs(c-dist[ns]) <= 1e-12 && prevState[ns] != -1 &&
					(s < prevState[ns] || (s == prevState[ns] && e < prevEdge[ns]))) {
				dist[ns] = c
				prevState[ns] = s
				prevEdge[ns] = e
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

// solve fills rt.paths with one search per source under the per-entry
// link costs cost. Each source's routes are capped subslices of one
// backing slice sized by their summed hop counts, so an append to one
// handed out by PathAdjIndices cannot run into the next; the per-source
// rows of the table share one slice the same way.
func (rt *RouteTable) solve(g *graph, cost []float64) error {
	n := g.n
	var scr dijkstraScratch
	hops := make([]int, n)
	rows := make([][]int, n*n)
	for src := 0; src < n; src++ {
		numStates := search(g, cost, src, &scr)
		total := 0
		for dst := 0; dst < n; dst++ {
			hops[dst] = 0
			if dst == src {
				continue
			}
			best := scr.terminal(dst, n, numStates)
			if best < 0 {
				return fmt.Errorf("noc: no %v route %d -> %d", rt.mode, src, dst)
			}
			for s := best; s != src; s = scr.prevState[s] {
				hops[dst]++
			}
			total += hops[dst]
		}
		buf := make([]int, total)
		paths := rows[src*n : (src+1)*n : (src+1)*n]
		for dst := 0; dst < n; dst++ {
			if dst == src {
				continue
			}
			h := hops[dst]
			path := buf[:h:h]
			buf = buf[h:]
			for s := scr.terminal(dst, n, numStates); s != src; s = scr.prevState[s] {
				h--
				u := scr.prevState[s]
				if u >= n {
					u -= n
				}
				path[h] = scr.prevEdge[s] - g.off[u]
			}
			paths[dst] = path
		}
		rt.paths[src] = paths
	}
	return nil
}

// checkTraffic rejects a traffic matrix that is not n×n or holds a
// negative or NaN rate.
func checkTraffic(traffic [][]float64, n int) error {
	if len(traffic) != n {
		return fmt.Errorf("noc: traffic matrix has %d rows for %d switches", len(traffic), n)
	}
	for i, row := range traffic {
		if len(row) != n {
			return fmt.Errorf("noc: traffic row %d has %d cols", i, len(row))
		}
		for j, v := range row {
			if v < 0 || math.IsNaN(v) {
				return fmt.Errorf("noc: bad traffic %v at (%d,%d)", v, i, j)
			}
		}
	}
	return nil
}

// RoutedAvgHops returns BuildRoutes(t, costs, mode).AvgHops(traffic)
// without materializing the route table: each source's search tree is
// walked back from every destination to count hops, so no path slices are
// built. It is the scoring kernel of WI-placement annealing, which reads
// only the weighted hop count of each proposal. A nil traffic matrix
// weighs every pair equally; any other must be n×n, non-negative and free
// of NaN. The topology is validated and every pair must be routable,
// exactly as BuildRoutes requires; the result is bit-identical because the
// search, the tie-break and the accumulation order are the same.
func RoutedAvgHops(t *topo.Topology, costs LinkCosts, mode RoutingMode, traffic [][]float64) (float64, error) {
	if traffic != nil {
		if err := checkTraffic(traffic, t.NumSwitches()); err != nil {
			return 0, err
		}
	}
	if mode != Shortest && mode != UpDown {
		rt, err := BuildRoutes(t, costs, mode)
		if err != nil {
			return 0, err
		}
		return rt.AvgHops(traffic), nil
	}
	if err := t.Validate(); err != nil {
		return 0, fmt.Errorf("noc: invalid topology: %w", err)
	}
	g := newGraph(t, costs, mode)
	n := g.n
	var scr dijkstraScratch
	var num, den float64
	for src := 0; src < n; src++ {
		numStates := search(g, g.cost, src, &scr)
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

// RefineRoutes rebuilds the route table with congestion-aware link costs.
// It models the per-application routing-table configuration an irregular
// NoC performs: hot links — saturated wireless channels, the up*/down*
// root — shed load to colder alternatives. XY tables are returned
// unchanged (dimension-order routing is oblivious by construction).
//
// The loads the traffic matrix induces on rt's routes seed the first
// iteration. Each iteration inflates every link's static cost by an M/D/1
// waiting factor, 1/(1-min(rho, maxUtil)), with rho the link's load, or
// its wireless channel's pooled load, and re-solves the (mode-constrained)
// shortest paths. Intermediate iterations never build a route table: the
// next iteration's loads are summed straight from each source's search
// tree, in the same (src, dst) order a table walk would use. Only the last
// iteration materializes routes. traffic must be n×n, non-negative and
// free of NaN.
func RefineRoutes(rt *RouteTable, traffic [][]float64, iterations int, maxUtil float64) (*RouteTable, error) {
	if rt.mode == XY || iterations <= 0 {
		return rt, nil
	}
	if !(maxUtil > 0 && maxUtil < 1) {
		return nil, fmt.Errorf("noc: bad max utilization %v", maxUtil)
	}
	t := rt.topo
	n := t.NumSwitches()
	if err := checkTraffic(traffic, n); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("noc: invalid topology: %w", err)
	}
	g := newGraph(t, rt.costs, rt.mode)
	load := make([]float64, len(g.to))
	var channelLoad [topo.NumChannels]float64
	addLoad := func(e int, f float64) {
		load[e] += f
		if ch := g.channel[e]; ch >= 0 {
			channelLoad[ch] += f
		}
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			f := traffic[s][d]
			if f == 0 || s == d {
				continue
			}
			u := s
			for _, ai := range rt.paths[s][d] {
				e := g.off[u] + ai
				addLoad(e, f)
				u = g.to[e]
			}
		}
	}
	cost := make([]float64, len(g.to))
	var scr dijkstraScratch
	for it := 0; ; it++ {
		for e := range cost {
			rho := load[e]
			if ch := g.channel[e]; ch >= 0 {
				rho = channelLoad[ch]
			}
			if rho > maxUtil {
				rho = maxUtil
			}
			cost[e] = g.cost[e] / (1 - rho)
		}
		if it == iterations-1 {
			break
		}
		clear(load)
		channelLoad = [topo.NumChannels]float64{}
		for src := 0; src < n; src++ {
			numStates := search(g, cost, src, &scr)
			for dst := 0; dst < n; dst++ {
				if dst == src {
					continue
				}
				best := scr.terminal(dst, n, numStates)
				if best < 0 {
					return nil, fmt.Errorf("noc: no %v route %d -> %d", rt.mode, src, dst)
				}
				f := traffic[src][dst]
				if f == 0 {
					continue
				}
				for s := best; s != src; s = scr.prevState[s] {
					addLoad(scr.prevEdge[s], f)
				}
			}
		}
	}
	out := &RouteTable{topo: t, costs: rt.costs, mode: rt.mode, paths: make([][][]int, n)}
	if err := out.solve(g, cost); err != nil {
		return nil, err
	}
	return out, nil
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
