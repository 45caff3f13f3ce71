// Package noc evaluates interconnect performance and energy on the
// topologies built by internal/topo. It provides:
//
//   - deterministic routing tables in three modes: unconstrained shortest
//     path (Dijkstra), XY dimension-order (minimal and deadlock-free on the
//     mesh), and up*/down* (deadlock-free on arbitrary graphs, used for the
//     irregular small-world WiNoC — constrained shortest path over a BFS
//     spanning tree). Its search states form a DAG, so the search is one
//     linear pass over them in topological order; a source whose pass
//     meets a near-tie re-runs on the Dijkstra heap, which decides such
//     ties, so every route is the one Dijkstra picks (see search);
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
	"slices"

	"wivfi/internal/energy"
	"wivfi/internal/obs"
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

// RouteTable holds one deterministic route for every ordered switch pair.
// A route is a run of edge ids: entries of the table's flattened graph g,
// so edge e leaves switch u at adjacency index e-g.off[u]. Every consumer
// (Analytic, RefineRoutes, the DES, the static link statistics) indexes
// its per-link state by these ids, so the table holds the one link
// numbering they share.
type RouteTable struct {
	topo  *topo.Topology
	costs LinkCosts
	mode  RoutingMode
	g     *graph
	// The route from src to dst is hop[hopOff[k]:hopOff[k+1]] with
	// k = src*n+dst, in hop order; empty when src == dst.
	hopOff []int32
	hop    []int32
}

// route returns the edge ids of the src->dst route (shared storage).
func (rt *RouteTable) route(src, dst int) []int32 {
	k := src*rt.g.n + dst
	return rt.hop[rt.hopOff[k]:rt.hopOff[k+1]]
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
	rt := &RouteTable{topo: t, costs: costs, mode: mode, g: newGraph(t, costs, mode)}
	var err error
	switch mode {
	case XY:
		err = rt.buildXY()
	case Shortest, UpDown:
		err = rt.solve(rt.g.cost)
	default:
		err = fmt.Errorf("noc: unknown routing mode %d", mode)
	}
	if err != nil {
		return nil, err
	}
	return rt, nil
}

// buildXY fills dimension-order routes; the topology must be the mesh.
// Each hop is read from a per-switch table of the first wireline entry
// towards each mesh neighbour, and every route is exactly its
// Manhattan distance long, so the hop store is sized once up front.
func (rt *RouteTable) buildXY() error {
	g := rt.g
	chip := rt.topo.Chip
	n := g.n
	// step[4*u+k] is u's entry towards its neighbour one column right
	// (k=0), one column left (1), one row down (2) or one row up (3); -1
	// when u has no wireline link there.
	step := make([]int32, 4*n)
	for u := 0; u < n; u++ {
		r, c := chip.Coord(u)
		nbr := [4]int{-1, -1, -1, -1}
		if c+1 < chip.Cols {
			nbr[0] = chip.ID(r, c+1)
		}
		if c > 0 {
			nbr[1] = chip.ID(r, c-1)
		}
		if r+1 < chip.Rows {
			nbr[2] = chip.ID(r+1, c)
		}
		if r > 0 {
			nbr[3] = chip.ID(r-1, c)
		}
		for k, v := range nbr {
			step[4*u+k] = -1
			for e := g.off[u]; v >= 0 && e < g.off[u+1]; e++ {
				if g.to[e] == v && g.channel[e] < 0 {
					step[4*u+k] = int32(e)
					break
				}
			}
		}
	}
	total := 0
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			total += chip.ManhattanHops(src, dst)
		}
	}
	rt.hopOff = make([]int32, n*n+1)
	rt.hop = make([]int32, total)
	k := int32(0)
	for src := 0; src < n; src++ {
		sr, sc := chip.Coord(src)
		for dst := 0; dst < n; dst++ {
			rt.hopOff[src*n+dst] = k
			dr, dc := chip.Coord(dst)
			cur, r, c := src, sr, sc
			for r != dr || c != dc {
				var dir int
				switch {
				case c < dc:
					dir, c = 0, c+1
				case c > dc:
					dir, c = 1, c-1
				case r < dr:
					dir, r = 2, r+1
				default:
					dir, r = 3, r-1
				}
				e := step[4*cur+dir]
				if e < 0 {
					return fmt.Errorf("noc: XY routing needs mesh link %d -> %d", cur, chip.ID(r, c))
				}
				rt.hop[k] = e
				k++
				cur = g.to[e]
			}
		}
	}
	rt.hopOff[n*n] = k
	return nil
}

// graph is a topology flattened in compressed sparse row form: the links
// of switch u are entries off[u] to off[u+1]-1 in adjacency order, so
// entry e of u is adjacency index e-off[u]. A route table builds one at
// construction and keeps it: its entry numbers are the table's edge ids.
type graph struct {
	n   int
	off []int
	to  []int
	// cost is the static routing cost of each entry (LinkCosts.linkCost).
	cost []float64
	// base is the uncontended traversal cycles of each entry
	// (LinkCosts.baseLatency).
	base []float64
	// lengthMM is the wire length of each entry.
	lengthMM []float64
	// channel is the wireless channel of each entry, -1 for wireline.
	channel []int
	// slot is the load accumulator of each entry: e itself for a wireline
	// entry, len(to)+channel for a wireless one, so the entries of one
	// channel pool their load in one slot.
	slot []int32
	// up is the up*/down* direction of each entry (see newGraph); nil for
	// unconstrained search.
	up []bool
	// order lists the 2n up*/down* search states in an order every entry
	// points forward in (see sweepSearch); nil for unconstrained search.
	order []int32
}

// newGraph flattens a validated topology for routing under mode. For
// UpDown every entry is classified as "up" or "down" from BFS levels
// rooted at switch 0, ties broken by lower id: u->v is up iff
// key(v) < key(u), with key = (level, id).
func newGraph(t *topo.Topology, costs LinkCosts, mode RoutingMode) *graph {
	n := t.NumSwitches()
	g := &graph{n: n, off: make([]int, n+1)}
	for u, links := range t.Adj {
		g.off[u+1] = g.off[u] + len(links)
	}
	m := g.off[n]
	g.to = make([]int, m)
	g.cost = make([]float64, m)
	g.base = make([]float64, m)
	g.lengthMM = make([]float64, m)
	g.channel = make([]int, m)
	g.slot = make([]int32, m)
	for u, links := range t.Adj {
		for ai, l := range links {
			e := g.off[u] + ai
			g.to[e] = l.To
			g.cost[e] = costs.linkCost(l)
			g.base[e] = costs.baseLatency(l)
			g.lengthMM[e] = l.LengthMM
			g.channel[e] = -1
			g.slot[e] = int32(e)
			if l.Type == topo.Wireless {
				g.channel[e] = l.Channel
				g.slot[e] = int32(m + l.Channel)
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
	// Bucket the switches by level, ascending id within a level, into the
	// phase-1 half of order: ascending key. The phase-0 half is the same
	// switches in descending key. The spent BFS queue holds each level's
	// next free slot.
	next := queue[:level[queue[n-1]]+1]
	clear(next)
	for _, l := range level {
		next[l]++
	}
	slot := 0
	for l, count := range next {
		next[l], slot = slot, slot+count
	}
	g.order = make([]int32, 2*n)
	for u, l := range level {
		g.order[n+next[l]] = int32(n + u)
		next[l]++
	}
	for i := 0; i < n; i++ {
		g.order[n-1-i] = g.order[n+i] - int32(n)
	}
	return g
}

// tieTol is the search's tie band: a candidate cost within tieTol of a
// state's best is a tie, which the (prevState, prevEdge) tie-break decides.
const tieTol = 1e-12

// relax offers state ns the candidate cost c, reached from state s over
// entry e. The candidate wins when it undercuts dist[ns] by more than
// tieTol, or when it ties within tieTol and (s, e) precedes the recorded
// (prevState, prevEdge); relax then records it and reports true. It is the
// one relax rule of both the heap search and the up*/down* sweep.
func relax(dist []float64, prevState, prevEdge []int, ns int, c float64, s, e int) bool {
	d := dist[ns]
	if c < d-tieTol || (math.Abs(c-d) <= tieTol && prevState[ns] != -1 &&
		(s < prevState[ns] || (s == prevState[ns] && e < prevEdge[ns]))) {
		dist[ns] = c
		prevState[ns] = s
		prevEdge[ns] = e
		return true
	}
	return false
}

// MetricUpDownHeapFallbacks counts up*/down* source searches whose
// topological sweep met a near-tie (a relaxation that is not clean) and
// re-ran on the heap (see search).
const MetricUpDownHeapFallbacks = "noc.updown.heap_fallbacks"

var heapFallbacks = obs.NewCounter(MetricUpDownHeapFallbacks)

// sweepable reports whether search may run g's up*/down* sweep under the
// per-entry costs cost: g is an up*/down* graph and every cost is finite
// and above the tie band. search's exactness argument needs
// fl(d+cost) >= d along every path, which such costs give.
func (g *graph) sweepable(cost []float64) bool {
	if g.up == nil {
		return false
	}
	for _, c := range cost {
		if !(c > tieTol && c <= math.MaxFloat64) {
			return false
		}
	}
	return true
}

// search runs the constrained shortest-path search from src over g with
// per-entry link costs cost, leaving the final dist/prevState/prevEdge
// arrays in scr and returning the number of search states. With g.up ==
// nil the search is unconstrained; otherwise the up*/down* rule applies:
// phase 0 may take up or down links (down moves to phase 1), phase 1 may
// only take down links. States are encoded as node + phase*n. prevEdge
// holds graph entries; entries of one node share its offset, so comparing
// them in the tie-break compares adjacency indices. It is the one search
// behind BuildRoutes, RefineRoutes and RoutedAvgHops, so none of them can
// disagree with another on a tie.
//
// sweep must be g.sweepable(cost). The up*/down* state graph is then a DAG
// that sweepSearch relaxes in one pass over g.order; otherwise, and in
// Shortest mode, search is Dijkstra over a lazy (cost, state) heap. The
// two share relax, and they agree whenever the sweep finishes:
//
// Call a state's candidates the costs fl(dist[u]+cost[e]) its reached
// predecessors u offer. The sweep offers each state all of them from the
// predecessors' final costs, since every predecessor comes first in
// g.order. It aborts on any relaxation that is not clean (see clean), so
// a finished sweep leaves each state at its least candidate m, with the
// least (s, e) offering exactly m, and m clean against every other
// candidate: each candidate above m was beaten by, or lost to, a best
// that m in turn cleanly beat, and cleanness against a value carries over
// to every higher one. In any order, then, a candidate above m loses to m
// and m beats it, so the result is order-free. The heap reaches the same
// one. Induct on its pops: a state never pops before its dist reaches m,
// for until then its heap entries are candidates above m, while the first
// unpopped state on its chain of best predecessors waits in the heap at a
// cost no greater than m (costs are positive, so fl(d+cost) >= d along the
// chain). Once at m a dist moves no more. So each popped state relaxes its
// successors from its final cost, and every state is offered the sweep's
// candidates. A source whose sweep aborts re-runs on the heap, counted in
// MetricUpDownHeapFallbacks.
func search(g *graph, cost []float64, src int, sweep bool, scr *dijkstraScratch) int {
	numStates := g.n
	if g.up != nil {
		numStates = 2 * g.n
	}
	scr.reset(src, numStates)
	if sweep {
		if sweepSearch(g, cost, scr) {
			return numStates
		}
		heapFallbacks.Add(1)
		scr.reset(src, numStates)
	}
	heapSearch(g, cost, src, scr)
	return numStates
}

// reset sizes scr's arrays to numStates and clears them for a search
// from src.
func (scr *dijkstraScratch) reset(src, numStates int) {
	if cap(scr.dist) < numStates {
		scr.dist = make([]float64, numStates)
		scr.prevState = make([]int, numStates)
		scr.prevEdge = make([]int, numStates)
		scr.done = make([]bool, numStates)
	}
	scr.dist = scr.dist[:numStates]
	scr.prevState = scr.prevState[:numStates]
	scr.prevEdge = scr.prevEdge[:numStates]
	for i := range scr.dist {
		scr.dist[i] = math.Inf(1)
		scr.prevState[i] = -1
		scr.prevEdge[i] = -1
	}
	scr.dist[src] = 0 // phase 0
}

// clean reports whether relax decides candidate c against best d by plain
// order: c == d, or the lower lo and higher hi of the two lie more than
// tieTol apart under both of relax's rounded tests (hi-lo > tieTol, so no
// tie, and lo < hi-tieTol, so lo wins). relax then takes c exactly when
// c < d and consults the tie-break exactly when c == d. Both tests only
// get easier as hi rises, so lo stays clean against every value above hi.
func clean(c, d float64) bool {
	if c == d {
		return true
	}
	lo, hi := c, d
	if c > d {
		lo, hi = d, c
	}
	return hi-lo > tieTol && lo < hi-tieTol
}

// sweepSearch relaxes every reached up*/down* state once, in g.order:
// phase-0 states by descending (BFS level, id), then phase-1 states by
// ascending key. An up entry lowers the key within phase 0, a down entry
// from phase 0 enters phase 1 and one within phase 1 raises the key, so
// every entry points forward in that order. It returns false, leaving
// the arrays partial, on a relaxation that is not clean: there the
// heap's result may depend on its pop order.
func sweepSearch(g *graph, cost []float64, scr *dijkstraScratch) bool {
	n, up, to, off := g.n, g.up, g.to, g.off
	dist, prevState, prevEdge := scr.dist, scr.prevState, scr.prevEdge
	for _, s32 := range g.order {
		s := int(s32)
		ds := dist[s]
		if math.IsInf(ds, 1) {
			continue // not reached from src
		}
		node, descended := s, false
		if s >= n {
			node, descended = s-n, true
		}
		for e, end := off[node], off[node+1]; e < end; e++ {
			ns := to[e]
			if up[e] {
				if descended {
					continue // cannot go up after going down
				}
			} else {
				ns += n
			}
			c := ds + cost[e]
			if !clean(c, dist[ns]) {
				return false
			}
			relax(dist, prevState, prevEdge, ns, c, s, e)
		}
	}
	return true
}

// heapSearch is Dijkstra from src over a lazy (cost, state) heap, on
// arrays reset for src.
func heapSearch(g *graph, cost []float64, src int, scr *dijkstraScratch) {
	n, up := g.n, g.up
	dist, prevState, prevEdge := scr.dist, scr.prevState, scr.prevEdge
	done := scr.done[:len(dist)]
	clear(done)
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
			if relax(dist, prevState, prevEdge, ns, c, s, e) {
				q = pqPush(q, pqItem{state: ns, cost: c})
			}
		}
	}
	scr.heap = q[:0]
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

// hopEnergyPJ fills pj[e] with the per-flit link energy of entry e under
// nm: the wireless hop energy, or the wireline energy of the entry's
// length.
func (g *graph) hopEnergyPJ(nm energy.NetworkModel, pj []float64) {
	for e, ch := range g.channel {
		if ch >= 0 {
			pj[e] = nm.WirelessHopPJ()
		} else {
			pj[e] = nm.WirelineHopPJ(g.lengthMM[e])
		}
	}
}

// solve fills the route store with one search per source over rt.g under
// the per-entry link costs cost. The search leaves graph entries in
// prevEdge, which are the table's edge ids, so each route is copied out
// as it stands, in one walk back from its terminal state.
func (rt *RouteTable) solve(cost []float64) error {
	g := rt.g
	n := g.n
	var scr dijkstraScratch
	sweep := g.sweepable(cost)
	rt.hopOff = make([]int32, n*n+1)
	// Room for source 0 at four hops a route; later sources extrapolate
	// the final size from the average of the sources routed so far, so
	// the store is resized a few times, not once per source.
	hop := make([]int32, 0, 4*n)
	for src := 0; src < n; src++ {
		numStates := search(g, cost, src, sweep, &scr)
		if src > 0 {
			if avg := len(hop) / src; cap(hop)-len(hop) < avg+avg/8 {
				hop = slices.Grow(hop, avg*(n-src)+len(hop)/8)
			}
		}
		for dst := 0; dst < n; dst++ {
			start := len(hop)
			rt.hopOff[src*n+dst] = int32(start)
			if dst == src {
				continue
			}
			best := scr.terminal(dst, n, numStates)
			if best < 0 {
				return fmt.Errorf("noc: no %v route %d -> %d", rt.mode, src, dst)
			}
			for s := best; s != src; s = scr.prevState[s] {
				hop = append(hop, int32(scr.prevEdge[s]))
			}
			slices.Reverse(hop[start:])
		}
	}
	rt.hopOff[n*n] = int32(len(hop))
	rt.hop = hop
	return nil
}

// checkTraffic rejects a traffic matrix that is not n×n or holds a
// negative, NaN or infinite rate.
func checkTraffic(traffic [][]float64, n int) error {
	if len(traffic) != n {
		return fmt.Errorf("noc: traffic matrix has %d rows for %d switches", len(traffic), n)
	}
	for i, row := range traffic {
		if len(row) != n {
			return fmt.Errorf("noc: traffic row %d has %d cols", i, len(row))
		}
		for j, v := range row {
			if !(v >= 0 && v <= math.MaxFloat64) { // negative, NaN or ±Inf
				return fmt.Errorf("noc: bad traffic %v at (%d,%d)", v, i, j)
			}
		}
	}
	return nil
}

// MetricRoutedAvgHopsCalls counts RoutedAvgHops calls: WI-placement
// scorings, one all-pairs search each.
const MetricRoutedAvgHopsCalls = "noc.routed_avg_hops.calls"

var routedAvgHopsCalls = obs.NewCounter(MetricRoutedAvgHopsCalls)

// RoutedAvgHops returns BuildRoutes(t, costs, mode).AvgHops(traffic)
// without materializing the route table: each source's search tree is
// walked back from every destination to count hops, so no path slices are
// built. It is the scoring kernel of WI-placement annealing, which reads
// only the weighted hop count of each proposal. A nil traffic matrix
// weighs every pair equally; any other must be n×n, non-negative and
// finite. The topology is validated and every pair must be routable,
// exactly as BuildRoutes requires; the result is bit-identical because the
// search, the tie-break and the accumulation order are the same.
func RoutedAvgHops(t *topo.Topology, costs LinkCosts, mode RoutingMode, traffic [][]float64) (float64, error) {
	routedAvgHopsCalls.Add(1)
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
	sweep := g.sweepable(g.cost)
	var num, den float64
	for src := 0; src < n; src++ {
		numStates := search(g, g.cost, src, sweep, &scr)
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
// finite.
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
	// Loads accumulate per link, or per wireless channel, in the graph's
	// accumulator slots, exactly as Analytic pools them.
	g := rt.g
	load := make([]float64, len(g.to)+topo.NumChannels)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			f := traffic[s][d]
			if f == 0 || s == d {
				continue
			}
			for _, e := range rt.route(s, d) {
				load[g.slot[e]] += f
			}
		}
	}
	cost := make([]float64, len(g.to))
	var scr dijkstraScratch
	for it := 0; ; it++ {
		for e := range cost {
			rho := load[g.slot[e]]
			if rho > maxUtil {
				rho = maxUtil
			}
			cost[e] = g.cost[e] / (1 - rho)
		}
		if it == iterations-1 {
			break
		}
		clear(load)
		sweep := g.sweepable(cost)
		for src := 0; src < n; src++ {
			numStates := search(g, cost, src, sweep, &scr)
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
					load[g.slot[scr.prevEdge[s]]] += f
				}
			}
		}
	}
	out := &RouteTable{topo: t, costs: rt.costs, mode: rt.mode, g: g}
	if err := out.solve(cost); err != nil {
		return nil, err
	}
	return out, nil
}

// PathAdjIndices returns the route from src to dst as adjacency indices:
// the k-th entry indexes topo.Adj of the switch reached after k hops. The
// slice is freshly built; nil when src == dst.
func (rt *RouteTable) PathAdjIndices(src, dst int) []int {
	r := rt.route(src, dst)
	if len(r) == 0 {
		return nil
	}
	out := make([]int, len(r))
	u := src
	for i, e := range r {
		out[i] = int(e) - rt.g.off[u]
		u = rt.g.to[e]
	}
	return out
}

// Hops returns the hop count of the src->dst route (0 when src == dst).
func (rt *RouteTable) Hops(src, dst int) int { return len(rt.route(src, dst)) }

// Path returns the switch sequence of the route from src to dst, inclusive
// of both endpoints.
func (rt *RouteTable) Path(src, dst int) []int {
	path := []int{src}
	for _, e := range rt.route(src, dst) {
		path = append(path, rt.g.to[e])
	}
	return path
}

// PathLinks returns the sequence of links along the route from src to dst.
func (rt *RouteTable) PathLinks(src, dst int) []topo.Link {
	var links []topo.Link
	cur := src
	for _, e := range rt.route(src, dst) {
		links = append(links, rt.topo.Adj[cur][int(e)-rt.g.off[cur]])
		cur = rt.g.to[e]
	}
	return links
}

// RoutedEnergyPJ returns the network energy of moving traffic (an n×n
// flit-count matrix) over the table's routes: the sum over routed pairs,
// in (src, dst) order, of traffic[src][dst] times the route's per-flit
// energy, which is each hop's switch and link energy (hopEnergyPJ) plus
// the destination's ejection port. With a single unit entry it is that
// pair's per-flit route energy.
func (rt *RouteTable) RoutedEnergyPJ(traffic [][]float64, nm energy.NetworkModel) float64 {
	g := rt.g
	n := g.n
	hopPJ := make([]float64, len(g.to))
	g.hopEnergyPJ(nm, hopPJ)
	var total float64
	for src := 0; src < n; src++ {
		row, off := traffic[src], rt.hopOff[src*n:(src+1)*n+1]
		for dst, f := range row {
			if f == 0 || src == dst {
				continue
			}
			var pj float64
			for _, e := range rt.hop[off[dst]:off[dst+1]] {
				pj += hopPJ[e]
			}
			pj += nm.SwitchPJPerFlitPort
			total += f * pj
		}
	}
	return total
}

// RouteCostCycles returns the total routing cost (the objective Dijkstra
// minimizes, including the wireless token bias) of the src->dst route.
func (rt *RouteTable) RouteCostCycles(src, dst int) float64 {
	var cycles float64
	for _, e := range rt.route(src, dst) {
		cycles += rt.g.cost[e]
	}
	return cycles
}

// BaseLatencyCycles returns the uncontended head-flit latency of the route.
func (rt *RouteTable) BaseLatencyCycles(src, dst int) float64 {
	var cycles float64
	for _, e := range rt.route(src, dst) {
		cycles += rt.g.base[e]
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
