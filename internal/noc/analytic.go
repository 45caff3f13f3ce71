package noc

import (
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
func Analytic(rt *RouteTable, traffic [][]float64, nm energy.NetworkModel, cfg AnalyticConfig) (AnalyticResult, error) {
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
					lat += base * contention(channelLoad[l.Channel])
					pj += nm.WirelessHopPJ()
					wirelessFlitHops += f
				} else {
					load := linkLoad[cur][ai]
					if load > maxUtil {
						maxUtil = load
					}
					lat += base * contention(load)
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
