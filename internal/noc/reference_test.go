package noc

import (
	"fmt"
	"math"

	"wivfi/internal/topo"
)

// This file keeps the closure-based route search as the test-only
// reference: a relax loop over []topo.Link that takes its link cost from
// an optional costFn, the per-source path extraction built on it, and the
// congestion-aware refinement that rebuilds a whole route table each
// iteration. The flat-graph kernel in routes.go must reproduce every route
// it picks (kernel_differential_test.go).

// refScratch holds the per-source working arrays of the reference search.
type refScratch struct {
	dist                []float64
	prevState, prevLink []int
	done                []bool
	heap                []pqItem
	rev                 []int
}

// refBuildRoutes is BuildRoutes on the reference search.
func refBuildRoutes(t *topo.Topology, costs LinkCosts, mode RoutingMode) (*RouteTable, error) {
	return refBuildRoutesWithCost(t, costs, mode, nil)
}

// refBuildRoutesWithCost is BuildRoutes with an optional per-link cost
// override used by congestion-aware refinement.
func refBuildRoutesWithCost(t *topo.Topology, costs LinkCosts, mode RoutingMode, costFn func(u, ai int) float64) (*RouteTable, error) {
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
func (rt *RouteTable) refDijkstra(src int, up [][]bool, costFn func(u, ai int) float64, scr *refScratch) [][]int {
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
func refRefineRoutes(rt *RouteTable, traffic [][]float64, iterations int, maxUtil float64) (*RouteTable, error) {
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
