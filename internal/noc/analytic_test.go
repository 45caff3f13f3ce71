package noc

import (
	"math"
	"testing"

	"wivfi/internal/energy"
)

func defaultNM() energy.NetworkModel { return energy.DefaultNetworkModel() }

func zeroTraffic(n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	return m
}

// pathEnergyPJ is the per-flit energy of the src->dst route: the routed
// energy of one flit on that pair alone.
func pathEnergyPJ(rt *RouteTable, src, dst int, nm energy.NetworkModel) float64 {
	traffic := zeroTraffic(rt.topo.NumSwitches())
	traffic[src][dst] = 1
	return rt.RoutedEnergyPJ(traffic, nm)
}

func TestAnalyticSingleFlowUncontended(t *testing.T) {
	rt := meshRT(t, Shortest)
	traffic := zeroTraffic(64)
	traffic[0][1] = 0.001 // negligible load: contention factor ~1
	cfg := DefaultAnalyticConfig()
	res, err := Analytic(rt, traffic, defaultNM(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgHops != 1 {
		t.Errorf("AvgHops = %v, want 1", res.AvgHops)
	}
	// base latency of one mesh hop + serialization
	wantLat := rt.BaseLatencyCycles(0, 1)*(1/(1-0.001)) + cfg.PacketFlits - 1
	if math.Abs(res.AvgLatencyCycles-wantLat) > 1e-9 {
		t.Errorf("AvgLatency = %v, want %v", res.AvgLatencyCycles, wantLat)
	}
	wantPJ := pathEnergyPJ(rt, 0, 1, defaultNM())
	if math.Abs(res.EnergyPJPerFlit-wantPJ) > 1e-9 {
		t.Errorf("EnergyPJPerFlit = %v, want %v", res.EnergyPJPerFlit, wantPJ)
	}
	if res.WirelessFraction != 0 {
		t.Errorf("WirelessFraction = %v on pure mesh", res.WirelessFraction)
	}
	if math.Abs(res.NetworkEDP-res.AvgLatencyCycles*res.EnergyPJPerFlit) > 1e-9 {
		t.Error("NetworkEDP inconsistent")
	}
}

func TestAnalyticContentionGrowsWithLoad(t *testing.T) {
	rt := meshRT(t, Shortest)
	nm := defaultNM()
	cfg := DefaultAnalyticConfig()
	prev := 0.0
	for i, load := range []float64{0.05, 0.3, 0.6, 0.9} {
		traffic := zeroTraffic(64)
		traffic[0][7] = load
		res, err := Analytic(rt, traffic, nm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.AvgLatencyCycles <= prev {
			t.Errorf("latency did not grow with load %v: %v <= %v", load, res.AvgLatencyCycles, prev)
		}
		prev = res.AvgLatencyCycles
	}
}

func TestAnalyticUtilizationClip(t *testing.T) {
	rt := meshRT(t, Shortest)
	traffic := zeroTraffic(64)
	traffic[0][7] = 5 // hopeless overload
	res, err := Analytic(rt, traffic, defaultNM(), DefaultAnalyticConfig())
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.AvgLatencyCycles, 1) || math.IsNaN(res.AvgLatencyCycles) {
		t.Error("overload latency not clipped")
	}
	if res.MaxLinkUtilization < 4.9 {
		t.Errorf("MaxLinkUtilization = %v, want ~5", res.MaxLinkUtilization)
	}
}

func TestAnalyticWirelessSharedChannelPoolsLoad(t *testing.T) {
	rt := winocRT(t, UpDown)
	nm := defaultNM()
	cfg := DefaultAnalyticConfig()
	// find two pairs whose routes use wireless links of the same channel
	type flow struct{ s, d int }
	var flows []flow
	channelOf := -1
	for s := 0; s < 64 && len(flows) < 2; s++ {
		for d := 0; d < 64 && len(flows) < 2; d++ {
			if s == d {
				continue
			}
			for _, l := range rt.PathLinks(s, d) {
				if l.Type == 1 { // topo.Wireless
					if channelOf == -1 {
						channelOf = l.Channel
					}
					if l.Channel == channelOf {
						flows = append(flows, flow{s, d})
					}
					break
				}
			}
		}
	}
	if len(flows) < 2 {
		t.Skip("could not find two wireless flows on one channel")
	}
	// one flow alone
	tr1 := zeroTraffic(64)
	tr1[flows[0].s][flows[0].d] = 0.3
	res1, err := Analytic(rt, tr1, nm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// both flows: channel pooling must raise the first flow's latency even
	// though the flows share no wireline link necessarily
	tr2 := zeroTraffic(64)
	tr2[flows[0].s][flows[0].d] = 0.3
	tr2[flows[1].s][flows[1].d] = 0.3
	res2, err := Analytic(rt, tr2, nm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.AvgLatencyCycles <= res1.AvgLatencyCycles {
		t.Errorf("shared-channel load did not raise latency: %v <= %v",
			res2.AvgLatencyCycles, res1.AvgLatencyCycles)
	}
	if res1.WirelessFraction <= 0 {
		t.Error("wireless flow has zero wireless fraction")
	}
}

func TestAnalyticRejectsBadInput(t *testing.T) {
	rt := meshRT(t, Shortest)
	if _, err := Analytic(rt, zeroTraffic(10), defaultNM(), DefaultAnalyticConfig()); err == nil {
		t.Error("wrong-size matrix accepted")
	}
	bad := zeroTraffic(64)
	bad[1][2] = -1
	if _, err := Analytic(rt, bad, defaultNM(), DefaultAnalyticConfig()); err == nil {
		t.Error("negative traffic accepted")
	}
	ragged := zeroTraffic(64)
	ragged[5] = ragged[5][:10]
	if _, err := Analytic(rt, ragged, defaultNM(), DefaultAnalyticConfig()); err == nil {
		t.Error("ragged matrix accepted")
	}
}

// TestAnalyticValidatesInPass1: Analytic checks the matrix inside its
// first load pass instead of a separate scan, and must still report the
// first bad entry exactly as checkTraffic does — same (row, col), same
// text — including entries on the diagonal and at zero-traffic positions
// the load loop skips.
func TestAnalyticValidatesInPass1(t *testing.T) {
	rt := meshRT(t, Shortest)
	cases := []struct {
		name string
		edit func(m [][]float64) [][]float64
		want string
	}{
		{"NaN", func(m [][]float64) [][]float64 { m[3][7] = math.NaN(); return m }, "noc: bad traffic NaN at (3,7)"},
		{"negative", func(m [][]float64) [][]float64 { m[3][7] = -1; return m }, "noc: bad traffic -1 at (3,7)"},
		{"+Inf", func(m [][]float64) [][]float64 { m[3][7] = math.Inf(1); return m }, "noc: bad traffic +Inf at (3,7)"},
		{"-Inf on diagonal", func(m [][]float64) [][]float64 { m[3][3] = math.Inf(-1); return m }, "noc: bad traffic -Inf at (3,3)"},
		{"ragged", func(m [][]float64) [][]float64 { m[3] = m[3][:7]; return m }, "noc: traffic row 3 has 7 cols"},
		{"ragged before NaN", func(m [][]float64) [][]float64 {
			m[3] = m[3][:7]
			m[5][1] = math.NaN()
			return m
		}, "noc: traffic row 3 has 7 cols"},
		{"NaN before ragged", func(m [][]float64) [][]float64 {
			m[2][60] = math.NaN()
			m[3] = append(m[3], 1)
			return m
		}, "noc: bad traffic NaN at (2,60)"},
		{"rows", func(m [][]float64) [][]float64 { return m[:63] }, "noc: traffic matrix has 63 rows for 64 switches"},
	}
	for _, c := range cases {
		m := c.edit(loadedTraffic(64))
		_, err := Analytic(rt, m, defaultNM(), DefaultAnalyticConfig())
		ref := checkTraffic(m, 64)
		if err == nil || ref == nil {
			t.Fatalf("%s: Analytic error %v, checkTraffic error %v", c.name, err, ref)
		}
		if err.Error() != c.want || ref.Error() != c.want {
			t.Errorf("%s: Analytic %q, checkTraffic %q, want %q", c.name, err, ref, c.want)
		}
	}
}

// loadedTraffic is an n×n matrix with traffic on every off-diagonal pair,
// so pass 1 walks routes before it reaches a bad entry.
func loadedTraffic(n int) [][]float64 {
	m := zeroTraffic(n)
	for s := range m {
		for d := range m[s] {
			if s != d {
				m[s][d] = 0.001
			}
		}
	}
	return m
}

func TestAnalyticZeroTraffic(t *testing.T) {
	rt := meshRT(t, Shortest)
	res, err := Analytic(rt, zeroTraffic(64), defaultNM(), DefaultAnalyticConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgLatencyCycles != 0 || res.EnergyPJPerFlit != 0 {
		t.Errorf("zero traffic produced %v", res)
	}
}

func TestWiNoCBeatsMeshOnLongRangeTraffic(t *testing.T) {
	// The paper's core network claim: for traffic between distant cores the
	// WiNoC delivers lower latency and energy than the mesh.
	mesh := meshRT(t, XY)
	winoc := winocRT(t, UpDown)
	nm := defaultNM()
	cfg := DefaultAnalyticConfig()
	traffic := zeroTraffic(64)
	// corner-to-corner flows between all four chip corners
	corners := []int{0, 7, 56, 63}
	for _, s := range corners {
		for _, d := range corners {
			if s != d {
				traffic[s][d] = 0.05
			}
		}
	}
	mres, err := Analytic(mesh, traffic, nm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wres, err := Analytic(winoc, traffic, nm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if wres.AvgLatencyCycles >= mres.AvgLatencyCycles {
		t.Errorf("WiNoC latency %v not below mesh %v", wres.AvgLatencyCycles, mres.AvgLatencyCycles)
	}
	if wres.EnergyPJPerFlit >= mres.EnergyPJPerFlit {
		t.Errorf("WiNoC energy %v not below mesh %v", wres.EnergyPJPerFlit, mres.EnergyPJPerFlit)
	}
	if wres.WirelessFraction == 0 {
		t.Error("long-range traffic not using wireless links")
	}
}
