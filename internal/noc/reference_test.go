package noc

import (
	"fmt"
	"math"

	"wivfi/internal/energy"
	"wivfi/internal/topo"
)

// This file keeps the closure-based route search as the test-only
// reference: a relax loop over []topo.Link that takes its link cost from
// an optional costFn, the per-source path extraction built on it, and the
// congestion-aware refinement that rebuilds a whole route table each
// iteration. The flat-graph kernel in routes.go must reproduce every route
// it picks (kernel_differential_test.go).
//
// The reference tables store routes as adjacency-index paths, the format
// the flat edge-id store replaced, and carry the per-hop dimension-order
// builder, Analytic and PathEnergyPJ that walked them. The flat-store
// kernels must reproduce their every bit (flat_differential_test.go).

// refTable is a route table in the adjacency-index format: paths[src][dst]
// is the list of adjacency indices, the k-th entry indexing topo.Adj[cur]
// where cur is the switch reached after k-1 hops. Empty when src == dst.
type refTable struct {
	topo  *topo.Topology
	costs LinkCosts
	mode  RoutingMode
	paths [][][]int
}

// refScratch holds the per-source working arrays of the reference search.
type refScratch struct {
	dist                []float64
	prevState, prevLink []int
	done                []bool
	heap                []pqItem
	rev                 []int
}

// refBuildRoutes is BuildRoutes on the reference search.
func refBuildRoutes(t *topo.Topology, costs LinkCosts, mode RoutingMode) (*refTable, error) {
	return refBuildRoutesWithCost(t, costs, mode, nil)
}

// refBuildRoutesWithCost is BuildRoutes with an optional per-link cost
// override used by congestion-aware refinement.
func refBuildRoutesWithCost(t *topo.Topology, costs LinkCosts, mode RoutingMode, costFn func(u, ai int) float64) (*refTable, error) {
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("noc: invalid topology: %w", err)
	}
	rt := &refTable{topo: t, costs: costs, mode: mode}
	n := t.NumSwitches()
	rt.paths = make([][][]int, n)
	switch mode {
	case XY:
		if err := rt.buildXY(); err != nil {
			return nil, err
		}
	case Shortest:
		var scr refScratch
		for src := 0; src < n; src++ {
			rt.paths[src] = rt.refDijkstra(src, nil, costFn, &scr)
		}
	case UpDown:
		up := refUpDirections(t)
		var scr refScratch
		for src := 0; src < n; src++ {
			rt.paths[src] = rt.refDijkstra(src, up, costFn, &scr)
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

// refUpDirections classifies every directed link as "up" (true) or "down"
// (false) using BFS levels from switch 0, ties broken by lower id. The
// result is indexed [from][adjacencyIndex].
func refUpDirections(t *topo.Topology) [][]bool {
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

// refSearch runs the constrained shortest-path search from src, leaving the
// final dist/prevState/prevLink arrays in scr and returning the number of
// search states. With up == nil the search is unconstrained; otherwise the
// up*/down* rule applies: state 0 may take up or down links (down
// transitions to state 1), state 1 may only take down links. States are
// encoded as node + phase*n. costFn, when non-nil, overrides the static link
// cost (congestion-aware refinement).
func refSearch(t *topo.Topology, costs LinkCosts, src int, up [][]bool, costFn func(u, ai int) float64, scr *refScratch) int {
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
func (scr *refScratch) terminal(dst, n, numStates int) int {
	best := dst
	if numStates > n && scr.dist[dst+n] < scr.dist[best] {
		best = dst + n
	}
	if math.IsInf(scr.dist[best], 1) {
		return -1
	}
	return best
}

// refDijkstra computes the routes from src (see refSearch), as
// adjacency-index paths.
func (rt *refTable) refDijkstra(src int, up [][]bool, costFn func(u, ai int) float64, scr *refScratch) [][]int {
	n := rt.topo.NumSwitches()
	numStates := refSearch(rt.topo, rt.costs, src, up, costFn, scr)
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

// refRefineRoutes rebuilds the route table with congestion-aware link
// costs: each iteration measures the per-link (and per-wireless-channel)
// load the traffic matrix induces on the current routes, inflates every
// link's cost by an M/D/1 waiting factor through a cost closure, and
// rebuilds the whole table.
func refRefineRoutes(rt *refTable, traffic [][]float64, iterations int, maxUtil float64) (*refTable, error) {
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
		next, err := refBuildRoutesWithCost(t, cur.costs, cur.mode, costFn)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

// buildXY fills dimension-order routes; the topology must be the mesh.
func (rt *refTable) buildXY() error {
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

// PathEnergyPJ returns the per-flit energy of the src->dst route under the
// network energy model: one switch traversal per hop plus the destination
// ejection port, plus link energies. It walks the stored route in place —
// no PathLinks slice — because the phase-energy loop in internal/sim calls
// it once per routed pair per phase.
func (rt *refTable) PathEnergyPJ(src, dst int, nm energy.NetworkModel) float64 {
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

// AvgHops returns the traffic-weighted mean hop count for a traffic matrix
// (any non-negative weights). With a nil matrix it returns the uniform
// all-pairs average.
func (rt *refTable) AvgHops(traffic [][]float64) float64 {
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
			num += w * float64(len(rt.paths[s][d]))
			den += w
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// refAnalytic is Analytic walking adjacency-index routes hop by hop. Each
// latency product is rounded explicitly, as Analytic rounds it, so no
// fused multiply-add can make the two differ.
func refAnalytic(rt *refTable, traffic [][]float64, nm energy.NetworkModel, cfg AnalyticConfig) (AnalyticResult, error) {
	n := rt.topo.NumSwitches()
	if err := checkTraffic(traffic, n); err != nil {
		return AnalyticResult{}, err
	}

	// Pass 1: accumulate load per directed wireline link (indexed
	// [from][adjacency index]) and per wireless channel.
	linkLoad := newLinkLoads(rt.topo)
	channelLoad := make([]float64, topo.NumChannels)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			f := traffic[s][d]
			if f == 0 || s == d {
				continue
			}
			cur := s
			for _, ai := range rt.paths[s][d] {
				l := rt.topo.Adj[cur][ai]
				if l.Type == topo.Wireless {
					channelLoad[l.Channel] += f
				} else {
					linkLoad[cur][ai] += f
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

	// Pass 2: per-pair latency and energy, traffic weighted.
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
			for _, ai := range rt.paths[s][d] {
				l := rt.topo.Adj[cur][ai]
				base := rt.costs.baseLatency(l)
				if l.Type == topo.Wireless {
					lat += float64(base * contention(channelLoad[l.Channel]))
					pj += nm.WirelessHopPJ()
					wirelessFlitHops += f
				} else {
					load := linkLoad[cur][ai]
					if load > maxUtil {
						maxUtil = load
					}
					lat += float64(base * contention(load))
					pj += nm.WirelineHopPJ(l.LengthMM)
				}
				totalFlitHops += f
				hops++
				cur = l.To
			}
			pj += nm.SwitchPJPerFlitPort // ejection
			lat += cfg.PacketFlits - 1   // wormhole serialization
			totFlits += f
			latNum += f * lat
			hopNum += f * float64(hops)
			pjNum += f * pj
		}
	}
	if totFlits == 0 {
		return AnalyticResult{}, nil
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
	return res, nil
}
