package noc

import (
	"fmt"
	"math"
	"sort"

	"wivfi/internal/energy"
	"wivfi/internal/topo"
)

// LinkStat describes the observed load of one directed link in a DES run.
type LinkStat struct {
	From, To int
	Type     topo.LinkType
	Channel  int
	// Flits is the number of flits that traversed the link.
	Flits int64
	// Utilization is flits divided by simulated cycles.
	Utilization float64
}

// DESStats is the extended result of an instrumented simulation run.
type DESStats struct {
	DESResult
	// Latencies holds every delivered packet's latency in cycles, sorted
	// ascending (enables percentile queries).
	Latencies []int64
	// Links holds the per-directed-link flit counts, hottest first.
	Links []LinkStat
}

// Percentile returns the p-quantile (0 <= p <= 1) of packet latency.
func (s *DESStats) Percentile(p float64) int64 {
	if len(s.Latencies) == 0 {
		return 0
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("noc: percentile %v out of [0,1]", p))
	}
	idx := int(math.Ceil(p*float64(len(s.Latencies)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s.Latencies[idx]
}

// HottestLink returns the most utilized link, or a zero LinkStat when no
// flit moved.
func (s *DESStats) HottestLink() LinkStat {
	if len(s.Links) == 0 {
		return LinkStat{}
	}
	return s.Links[0]
}

// staticLinkStats derives per-directed-link flit counts from the static
// routes: in a delivered-all run every flit of every packet traverses
// exactly its route. Hottest link first.
func staticLinkStats(rt *RouteTable, packets []Packet, cycles int64) []LinkStat {
	type key struct{ from, to int }
	// Index each link the first time a walk crosses it: the metadata is in
	// hand at that moment, so no per-key O(degree) adjacency rescan is
	// needed afterwards. slot caches each edge id's index (plus one), so
	// the map is consulted once per edge, not once per hop.
	g := rt.g
	idx := map[key]int{}
	slot := make([]int, len(g.to))
	var links []LinkStat
	for _, pk := range packets {
		if pk.Src == pk.Dst {
			continue
		}
		cur := pk.Src
		for _, e := range rt.route(pk.Src, pk.Dst) {
			i := slot[e] - 1
			if i < 0 {
				k := key{cur, g.to[e]}
				var ok bool
				if i, ok = idx[k]; !ok {
					l := rt.topo.Adj[cur][int(e)-g.off[cur]]
					i = len(links)
					idx[k] = i
					links = append(links, LinkStat{
						From: cur, To: l.To,
						Type: l.Type, Channel: l.Channel,
					})
				}
				slot[e] = i + 1
			}
			links[i].Flits += int64(pk.Flits)
			cur = g.to[e]
		}
	}
	if cycles > 0 {
		for i := range links {
			links[i].Utilization = float64(links[i].Flits) / float64(cycles)
		}
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].Flits != links[j].Flits {
			return links[i].Flits > links[j].Flits
		}
		if links[i].From != links[j].From {
			return links[i].From < links[j].From
		}
		return links[i].To < links[j].To
	})
	return links
}

// SaturationPoint is one sample of a throughput sweep.
type SaturationPoint struct {
	InjectionRate float64 // flits/cycle/node offered
	AvgLatency    float64 // cycles
	Delivered     int
}

// SaturationSweep measures average latency across offered loads on uniform
// random traffic, the standard NoC characterization curve. It returns one
// point per rate; latency blowing up marks the saturation throughput.
func SaturationSweep(rt *RouteTable, rates []float64, packetsPerRate int, flits int, nm energy.NetworkModel, cfg DESConfig, seed int64) ([]SaturationPoint, error) {
	n := rt.topo.NumSwitches()
	var out []SaturationPoint
	for _, rate := range rates {
		if rate <= 0 {
			return nil, fmt.Errorf("noc: non-positive injection rate %v", rate)
		}
		// Bernoulli injection: each node sources packetsPerRate/n packets
		// spaced so the aggregate offered load matches the rate.
		horizon := float64(packetsPerRate*flits) / (rate * float64(n))
		pkts := uniformTraffic(n, packetsPerRate, flits, horizon, seed)
		res, err := RunDES(rt, pkts, nm, cfg)
		if err != nil {
			return nil, fmt.Errorf("noc: sweep at rate %v: %w", rate, err)
		}
		out = append(out, SaturationPoint{
			InjectionRate: rate,
			AvgLatency:    res.AvgLatencyCycles,
			Delivered:     res.Delivered,
		})
	}
	return out, nil
}

// uniformTraffic draws uniform random src/dst pairs with injection times
// uniform over [0, horizon) at full 53-bit precision. (An earlier version
// quantized injection to rng.next()%1000 / 1000 of the horizon — only 1000
// distinct slots, which collides badly at large horizons and truncates
// everything to cycle 0 when horizon < 1000.)
func uniformTraffic(n, packets, flits int, horizon float64, seed int64) []Packet {
	rng := newSplitMix(uint64(seed))
	pkts := make([]Packet, 0, packets)
	for i := 0; i < packets; i++ {
		src := int(rng.next() % uint64(n))
		dst := int(rng.next() % uint64(n))
		for dst == src {
			dst = int(rng.next() % uint64(n))
		}
		inject := int64(rng.float64() * horizon)
		pkts = append(pkts, Packet{ID: i, Src: src, Dst: dst, Flits: flits, Inject: inject})
	}
	return pkts
}

// splitMix is a tiny deterministic PRNG (SplitMix64) so the sweep does not
// depend on math/rand's global ordering guarantees across Go versions.
type splitMix struct{ state uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{state: seed} }

func (s *splitMix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0, 1) with the full 53 bits of double
// precision.
func (s *splitMix) float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}
