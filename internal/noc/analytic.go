package noc

import (
	"fmt"
	"math"

	"wivfi/internal/energy"
	"wivfi/internal/topo"
)

// AnalyticConfig tunes the closed-form network evaluator.
type AnalyticConfig struct {
	// PacketFlits is the average packet length in flits; wormhole
	// serialization adds PacketFlits-1 cycles to each packet latency.
	PacketFlits float64
	// MaxUtilization clips per-link load before the contention factor is
	// applied, keeping the model finite under overload.
	MaxUtilization float64
}

// DefaultAnalyticConfig returns the configuration used throughout the
// experiments: 4-flit packets (a 32-bit header beat plus a coherence
// payload split over 32-bit flits) and a 0.95 utilization clip.
func DefaultAnalyticConfig() AnalyticConfig {
	return AnalyticConfig{PacketFlits: 4, MaxUtilization: 0.95}
}

// AnalyticResult reports the network-level metrics of one traffic load.
type AnalyticResult struct {
	// AvgLatencyCycles is the traffic-weighted mean packet latency.
	AvgLatencyCycles float64
	// AvgHops is the traffic-weighted mean hop count.
	AvgHops float64
	// EnergyPJPerFlit is the traffic-weighted mean per-flit route energy.
	EnergyPJPerFlit float64
	// WirelessFraction is the fraction of flit-hops carried by wireless
	// links (the "wireless utilization" of Section 6).
	WirelessFraction float64
	// MaxLinkUtilization is the highest per-link (or per-channel) load in
	// flits/cycle after aggregation.
	MaxLinkUtilization float64
	// NetworkEDP is EnergyPJPerFlit x AvgLatencyCycles, the figure of merit
	// the paper uses to pick network parameters (Fig. 6, Section 7.2).
	NetworkEDP float64
}

// Analytic evaluates a traffic matrix (traffic[s][d] = flits per network
// cycle from switch s to switch d) on the routed topology.
//
// Model: every packet follows its static route. Each link is an M/D/1-like
// server whose waiting time inflates the link's base traversal latency by
// 1/(1-rho); wireless links on the same channel share one medium, so their
// loads are pooled per channel before the factor is applied (this is how
// the token MAC's serialization shows up analytically). Packet latency is
// the inflated path latency plus wormhole serialization.
//
// The evaluation is two walks over the flat route store with one O(links)
// pass between them: the first sums each link's (or channel's) load, the
// middle pass turns every link's load into its inflated latency term and
// its hop energy, and the second sums those per pair in hop order, so
// each pair's floats are added exactly as a per-hop evaluation would.
func Analytic(rt *RouteTable, traffic [][]float64, nm energy.NetworkModel, cfg AnalyticConfig) (AnalyticResult, error) {
	g := rt.g
	n := g.n
	if len(traffic) != n {
		return AnalyticResult{}, fmt.Errorf("noc: traffic matrix has %d rows for %d switches", len(traffic), n)
	}

	// Pass 1: accumulate load per directed wireline link and per wireless
	// channel, each in its accumulator slot (g.slot). It also validates
	// the matrix as checkTraffic does, row by row in the same order, so
	// the first bad entry and its error text are checkTraffic's.
	m := len(g.to)
	scratch := make([]float64, 4*m+topo.NumChannels)
	acc, scratch := scratch[:m+topo.NumChannels], scratch[m+topo.NumChannels:]
	term, hopPJ, wirelessHop := scratch[:m], scratch[m:2*m], scratch[2*m:]
	for s := 0; s < n; s++ {
		row, off := traffic[s], rt.hopOff[s*n:(s+1)*n+1]
		if len(row) != n {
			return AnalyticResult{}, fmt.Errorf("noc: traffic row %d has %d cols", s, len(row))
		}
		for d, f := range row {
			if !(f >= 0 && f <= math.MaxFloat64) { // negative, NaN or ±Inf
				return AnalyticResult{}, fmt.Errorf("noc: bad traffic %v at (%d,%d)", f, s, d)
			}
			if f == 0 || s == d {
				continue
			}
			for _, e := range rt.hop[off[d]:off[d+1]] {
				acc[g.slot[e]] += f
			}
		}
	}

	// Per link: the contention-inflated latency term, the hop energy and
	// a 0/1 wireless weight. The explicit conversion rounds the product
	// before it is stored, so pass 2 adds the same value a per-hop
	// evaluation would and no fused multiply-add can merge the two.
	maxUtil := 0.0
	for _, rho := range acc {
		if rho > maxUtil {
			maxUtil = rho
		}
	}
	for e, ch := range g.channel {
		rho := acc[g.slot[e]]
		if rho > cfg.MaxUtilization {
			rho = cfg.MaxUtilization
		}
		term[e] = float64(g.base[e] * (1 / (1 - rho)))
		if ch >= 0 {
			wirelessHop[e] = 1
		}
	}
	g.hopEnergyPJ(nm, hopPJ)

	// Pass 2: per-pair latency and energy, traffic weighted. f*wirelessHop
	// is f or +0 exactly, so the wireless tally adds f on wireless hops
	// alone.
	var totFlits, latNum, hopNum, pjNum, wirelessFlitHops, totalFlitHops float64
	for s := 0; s < n; s++ {
		row, off := traffic[s], rt.hopOff[s*n:(s+1)*n+1]
		for d, f := range row {
			if f == 0 || s == d {
				continue
			}
			var lat, pj float64
			r := rt.hop[off[d]:off[d+1]]
			for _, e := range r {
				lat += term[e]
				pj += hopPJ[e]
				wirelessFlitHops += f * wirelessHop[e]
				totalFlitHops += f
			}
			pj += nm.SwitchPJPerFlitPort // ejection
			lat += cfg.PacketFlits - 1   // wormhole serialization
			totFlits += f
			latNum += f * lat
			hopNum += f * float64(len(r))
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
