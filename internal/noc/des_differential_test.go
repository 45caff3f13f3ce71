package noc

import (
	"math/rand"
	"testing"

	"wivfi/internal/energy"
	"wivfi/internal/platform"
	"wivfi/internal/topo"
)

// The differential property test: the event-calendar engine must be
// observably indistinguishable from the cycle-driven reference engine —
// identical DESResult (bit-exact floats included), identical delivery
// sequence with identical latencies, identical per-flit forward events in
// identical order, identical error outcomes — across randomized
// topologies, traffic patterns, buffer depths, wireless rings, and
// truncated (MaxCycles) runs.

type deliverEvent struct {
	id  int
	lat int64
}

type forwardEvent struct {
	u, ai int
	cycle int64
}

type desTrace struct {
	res      DESResult
	err      error
	delivers []deliverEvent
	forwards []forwardEvent
}

func traceEngine(rt *RouteTable, pkts []Packet, nm energy.NetworkModel, cfg DESConfig, reference bool) desTrace {
	var tr desTrace
	hooks := desHooks{
		onDeliver: func(id int, lat int64) {
			tr.delivers = append(tr.delivers, deliverEvent{id, lat})
		},
		onForward: func(u, ai int, cycle int64) {
			tr.forwards = append(tr.forwards, forwardEvent{u, ai, cycle})
		},
	}
	if reference {
		tr.res, tr.err = runDESReference(rt, pkts, nm, cfg, hooks)
	} else {
		tr.res, tr.err = runDESHooked(rt, pkts, nm, cfg, hooks)
	}
	return tr
}

func diffTraces(t *testing.T, label string, ref, got desTrace) {
	t.Helper()
	if (ref.err == nil) != (got.err == nil) {
		t.Fatalf("%s: error mismatch: reference %v, event %v", label, ref.err, got.err)
	}
	if ref.err != nil && got.err != nil && ref.err.Error() != got.err.Error() {
		t.Fatalf("%s: error text mismatch:\n  reference %v\n  event     %v", label, ref.err, got.err)
	}
	for i := range ref.forwards {
		if i >= len(got.forwards) || ref.forwards[i] != got.forwards[i] {
			var g forwardEvent
			if i < len(got.forwards) {
				g = got.forwards[i]
			}
			t.Fatalf("%s: forward[%d] = %+v, reference %+v", label, i, g, ref.forwards[i])
		}
	}
	if len(ref.forwards) != len(got.forwards) {
		t.Fatalf("%s: %d forward events vs reference's %d", label, len(got.forwards), len(ref.forwards))
	}
	if len(ref.delivers) != len(got.delivers) {
		t.Fatalf("%s: %d deliver events vs reference's %d", label, len(got.delivers), len(ref.delivers))
	}
	for i := range ref.delivers {
		if ref.delivers[i] != got.delivers[i] {
			t.Fatalf("%s: deliver[%d] = %+v, reference %+v", label, i, got.delivers[i], ref.delivers[i])
		}
	}
	if ref.res != got.res {
		t.Fatalf("%s: DESResult mismatch:\n  reference %+v\n  event     %+v", label, ref.res, got.res)
	}
}

// diffTopos builds the topology pool the random cases draw from: a small
// and a large mesh, irregular small-worlds with and without wireless
// rings, and a small fabric with partial rings (two channels populated,
// one empty).
func diffTopos(t *testing.T) []*RouteTable {
	t.Helper()
	small := platform.Chip{Rows: 4, Cols: 4, TileMM: 2.5}
	pool := []*RouteTable{
		meshRT(t, XY),
	}
	if rt, err := BuildRoutes(topo.Mesh(small), DefaultLinkCosts(), XY); err != nil {
		t.Fatal(err)
	} else {
		pool = append(pool, rt)
	}
	pool = append(pool, winocRT(t, UpDown))
	// small-world without wireless
	cfg := topo.DefaultSmallWorldConfig()
	cfg.Seed = 7
	tp, err := topo.SmallWorld(platform.DefaultChip(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rt, err := BuildRoutes(tp, DefaultLinkCosts(), UpDown); err != nil {
		t.Fatal(err)
	} else {
		pool = append(pool, rt)
	}
	// small-world with only two of the three channels populated
	chip := platform.DefaultChip()
	cfg2 := topo.DefaultSmallWorldConfig()
	cfg2.Seed = 11
	tp2, err := topo.SmallWorld(chip, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	placement := [][]int{
		{chip.ID(1, 1), chip.ID(1, 6), chip.ID(6, 1)},
		{chip.ID(6, 6), chip.ID(3, 3), chip.ID(4, 4)},
	}
	if err := topo.AddWireless(tp2, placement); err != nil {
		t.Fatal(err)
	}
	if rt, err := BuildRoutes(tp2, DefaultLinkCosts(), UpDown); err != nil {
		t.Fatal(err)
	} else {
		pool = append(pool, rt)
	}
	return pool
}

// TestDESDifferentialRandomized replays >=1000 randomized cases through
// both engines and requires observational equivalence. Case shapes are
// weighted toward the small mesh (cheap reference runs) with regular
// excursions to 64-switch fabrics, wireless rings, buffer depth 1, local
// (src==dst) packets, negative injection cycles, and MaxCycles truncation.
func TestDESDifferentialRandomized(t *testing.T) {
	pool := diffTopos(t)
	nm := defaultNM()
	cases := 1100
	if testing.Short() {
		cases = 150
	}
	rng := rand.New(rand.NewSource(42))
	for c := 0; c < cases; c++ {
		// 70% of cases on the 4x4 mesh keep the reference affordable;
		// the rest sweep the 64-switch fabrics.
		var rt *RouteTable
		if rng.Intn(10) < 7 {
			rt = pool[1]
		} else {
			rt = pool[rng.Intn(len(pool))]
		}
		n := rt.topo.NumSwitches()
		cfg := DESConfig{
			BufDepthFlits:   1 + rng.Intn(3),
			WIBufDepthFlits: 1 + rng.Intn(8),
			MaxCycles:       50_000,
		}
		truncated := rng.Intn(10) == 0
		if truncated {
			cfg.MaxCycles = int64(1 + rng.Intn(150))
		}
		injSpread := 1 + rng.Intn(150)
		numPkts := rng.Intn(50)
		if n > 16 {
			injSpread = 1 + rng.Intn(400)
			numPkts = rng.Intn(120)
		}
		pkts := make([]Packet, 0, numPkts)
		for i := 0; i < numPkts; i++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			if rng.Intn(12) == 0 {
				dst = src // local delivery path
			}
			inject := int64(rng.Intn(injSpread))
			if rng.Intn(40) == 0 {
				inject = -int64(rng.Intn(5)) // "ready before cycle 0"
			}
			pkts = append(pkts, Packet{
				ID:     i,
				Src:    src,
				Dst:    dst,
				Flits:  1 + rng.Intn(6),
				Inject: inject,
			})
		}
		ref := traceEngine(rt, pkts, nm, cfg, true)
		got := traceEngine(rt, pkts, nm, cfg, false)
		diffTraces(t, caseLabel(c, n, cfg, len(pkts)), ref, got)
	}
}

func caseLabel(c, n int, cfg DESConfig, pkts int) string {
	return "case " + itoa(c) + " (n=" + itoa(n) + " pkts=" + itoa(pkts) +
		" buf=" + itoa(cfg.BufDepthFlits) + "/" + itoa(cfg.WIBufDepthFlits) +
		" max=" + itoa(int(cfg.MaxCycles)) + ")"
}

func itoa(v int) string {
	if v < 0 {
		return "-" + itoa(-v)
	}
	if v < 10 {
		return string(rune('0' + v))
	}
	return itoa(v/10) + string(rune('0'+v%10))
}

// TestDESDifferentialHighLoad pushes both engines into sustained
// congestion (every source injecting from cycle 0, deep wormholes,
// wireless contention) where arbitration and token-rotation corner cases
// concentrate.
func TestDESDifferentialHighLoad(t *testing.T) {
	nm := defaultNM()
	for _, tc := range []struct {
		name string
		rt   *RouteTable
	}{
		{"mesh", meshRT(t, XY)},
		{"winoc", winocRT(t, UpDown)},
	} {
		rng := rand.New(rand.NewSource(99))
		n := tc.rt.topo.NumSwitches()
		var pkts []Packet
		for i := 0; i < 400; i++ {
			pkts = append(pkts, Packet{
				ID: i, Src: rng.Intn(n), Dst: rng.Intn(n),
				Flits: 4, Inject: int64(rng.Intn(50)),
			})
		}
		cfg := DefaultDESConfig()
		ref := traceEngine(tc.rt, pkts, nm, cfg, true)
		got := traceEngine(tc.rt, pkts, nm, cfg, false)
		diffTraces(t, tc.name, ref, got)
	}
}

// TestDESLongPathRoutingIdentical is the satellite regression for the
// O(path) nextAdjAt scan: a corner-to-corner packet on the 8x8 mesh (the
// longest XY route) must traverse exactly its routed links in order under
// the O(1) hop-index lookup, with forward events identical to the
// reference engine's.
func TestDESLongPathRoutingIdentical(t *testing.T) {
	rt := meshRT(t, XY)
	nm := defaultNM()
	pkts := []Packet{{ID: 0, Src: 0, Dst: 63, Flits: 3, Inject: 0}}
	cfg := DefaultDESConfig()

	ref := traceEngine(rt, pkts, nm, cfg, true)
	got := traceEngine(rt, pkts, nm, cfg, false)
	diffTraces(t, "long-path", ref, got)

	// The head flit's forward events must walk the routed adjacency
	// sequence hop by hop.
	adjSeq := rt.PathAdjIndices(0, 63)
	nodeSeq := rt.Path(0, 63)
	hops := len(adjSeq)
	if got.res.TotalFlitHops != int64(3*hops) {
		t.Fatalf("flit-hops %d, want %d", got.res.TotalFlitHops, 3*hops)
	}
	// Forward events arrive in cycle order; the head flit's are the first
	// event at each new source switch.
	seen := 0
	for _, f := range got.forwards {
		if seen < hops && f.u == nodeSeq[seen] && f.ai == adjSeq[seen] {
			seen++
		}
	}
	if seen != hops {
		t.Fatalf("head flit matched %d of %d routed hops", seen, hops)
	}
}

// TestDESEngineReuseIsDeterministic runs the same workload through the
// public entry point repeatedly: the warmed, reused engine must reproduce
// the cold run exactly.
func TestDESEngineReuseIsDeterministic(t *testing.T) {
	rt := winocRT(t, UpDown)
	nm := defaultNM()
	rng := rand.New(rand.NewSource(5))
	var pkts []Packet
	for i := 0; i < 300; i++ {
		pkts = append(pkts, Packet{
			ID: i, Src: rng.Intn(64), Dst: rng.Intn(64),
			Flits: 4, Inject: int64(rng.Intn(2000)),
		})
	}
	first, err := RunDES(rt, pkts, nm, DefaultDESConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := RunDES(rt, pkts, nm, DefaultDESConfig())
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("rerun %d: %+v, first %+v", i, again, first)
		}
	}
}
