package noc

import (
	"math/rand"
	"testing"

	"wivfi/internal/platform"
	"wivfi/internal/topo"
)

// cdgAcyclic checks that the channel dependency graph of a route table is
// acyclic (the wormhole deadlock-freedom condition).
func cdgAcyclic(rt *RouteTable) bool {
	n := rt.topo.NumSwitches()
	type link struct{ from, ai int }
	id := map[link]int{}
	var links []link
	for u := 0; u < n; u++ {
		for ai := range rt.topo.Adj[u] {
			id[link{u, ai}] = len(links)
			links = append(links, link{u, ai})
		}
	}
	adj := make([][]int, len(links))
	edge := map[[2]int]bool{}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			cur := s
			prev := -1
			for _, ai := range rt.PathAdjIndices(s, d) {
				curID := id[link{cur, ai}]
				if prev >= 0 && !edge[[2]int{prev, curID}] {
					edge[[2]int{prev, curID}] = true
					adj[prev] = append(adj[prev], curID)
				}
				prev = curID
				cur = rt.topo.Adj[cur][ai].To
			}
		}
	}
	color := make([]int, len(links))
	var stack [][2]int
	for s := range adj {
		if color[s] != 0 {
			continue
		}
		stack = append(stack[:0], [2]int{s, 0})
		color[s] = 1
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			u, i := top[0], top[1]
			if i < len(adj[u]) {
				top[1]++
				v := adj[u][i]
				switch color[v] {
				case 0:
					color[v] = 1
					stack = append(stack, [2]int{v, 0})
				case 1:
					return false
				}
			} else {
				color[u] = 2
				stack = stack[:len(stack)-1]
			}
		}
	}
	return true
}

// TestUpDownDeadlockFreeAcrossSeeds sweeps random small-world constructions
// (different wiring each seed) and asserts the up*/down* route set is always
// deadlock-free and complete — the property the cycle-accurate simulator
// relies on for any topology the builder can emit.
func TestUpDownDeadlockFreeAcrossSeeds(t *testing.T) {
	chips := []platform.Chip{
		{Rows: 4, Cols: 4, TileMM: 2.5},
		{Rows: 8, Cols: 8, TileMM: 2.5},
	}
	for _, chip := range chips {
		for seed := int64(1); seed <= 8; seed++ {
			cfg := topo.DefaultSmallWorldConfig()
			cfg.Seed = seed
			tp, err := topo.SmallWorld(chip, cfg)
			if err != nil {
				t.Fatalf("chip %dx%d seed %d: %v", chip.Rows, chip.Cols, seed, err)
			}
			rt, err := BuildRoutes(tp, DefaultLinkCosts(), UpDown)
			if err != nil {
				t.Fatalf("chip %dx%d seed %d routes: %v", chip.Rows, chip.Cols, seed, err)
			}
			if !cdgAcyclic(rt) {
				t.Fatalf("chip %dx%d seed %d: cyclic channel dependency graph", chip.Rows, chip.Cols, seed)
			}
			// every pair routed end-to-end
			n := tp.NumSwitches()
			for s := 0; s < n; s++ {
				for d := 0; d < n; d++ {
					if s == d {
						continue
					}
					path := rt.Path(s, d)
					if path[len(path)-1] != d {
						t.Fatalf("route (%d,%d) broken at seed %d", s, d, seed)
					}
				}
			}
		}
	}
}

// TestDESRandomTopologiesDeliverEverything drives the wormhole simulator
// over randomly wired WiNoCs with random traffic: nothing may deadlock or
// stall, flit-hop accounting must match the routed path lengths.
func TestDESRandomTopologiesDeliverEverything(t *testing.T) {
	chip := platform.DefaultChip()
	for seed := int64(1); seed <= 4; seed++ {
		cfg := topo.DefaultSmallWorldConfig()
		cfg.Seed = seed
		tp, err := topo.SmallWorld(chip, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// wireless on half the runs
		if seed%2 == 0 {
			placement := [][]int{
				{chip.ID(1, 1), chip.ID(1, 2), chip.ID(2, 1)},
				{chip.ID(1, 5), chip.ID(1, 6), chip.ID(2, 6)},
				{chip.ID(5, 1), chip.ID(6, 1), chip.ID(6, 2)},
				{chip.ID(5, 6), chip.ID(6, 6), chip.ID(6, 5)},
			}
			if err := topo.AddWireless(tp, placement); err != nil {
				t.Fatal(err)
			}
		}
		rt, err := BuildRoutes(tp, DefaultLinkCosts(), UpDown)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed * 100))
		var pkts []Packet
		var wantHops int64
		for i := 0; i < 250; i++ {
			s, d := rng.Intn(64), rng.Intn(64)
			pkts = append(pkts, Packet{ID: i, Src: s, Dst: d, Flits: 3, Inject: int64(rng.Intn(3000))})
			wantHops += int64(3 * rt.Hops(s, d))
		}
		res, err := RunDES(rt, pkts, defaultNM(), DefaultDESConfig())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Delivered != len(pkts) || res.Stalled != 0 {
			t.Fatalf("seed %d: delivered %d stalled %d", seed, res.Delivered, res.Stalled)
		}
		if res.TotalFlitHops != wantHops {
			t.Fatalf("seed %d: flit-hops %d, routes say %d", seed, res.TotalFlitHops, wantHops)
		}
	}
}
