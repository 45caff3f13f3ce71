package noc

import (
	"fmt"
	"sort"

	"wivfi/internal/energy"
	"wivfi/internal/timeline"
	"wivfi/internal/topo"
)

// DefaultLinkWindow is the initial per-link sampler window in cycles.
// Every link series in one run shares a window (the probe rescales all
// rows together), so the heatmap rows stay on one time axis.
const DefaultLinkWindow = 64

// linkProbe bins flit forwards per link per cycle window. Unlike
// independent timeline.Samplers — which would rescale at different times
// and leave the heatmap rows on different axes — the probe rescales every
// row together, preserving a shared x axis.
type linkProbe struct {
	rt     *RouteTable
	base   []int // flat link index base per switch
	window int64 // shared window width in cycles
	rows   [][]float64
}

func newLinkProbe(rt *RouteTable, window int64) *linkProbe {
	t := rt.topo
	p := &linkProbe{rt: rt, window: window, base: make([]int, t.NumSwitches()+1)}
	for u := 0; u < t.NumSwitches(); u++ {
		p.base[u+1] = p.base[u] + len(t.Adj[u])
	}
	p.rows = make([][]float64, p.base[len(p.base)-1])
	return p
}

// record is the desHooks.onForward sink.
func (p *linkProbe) record(u, ai int, cycle int64) {
	b := cycle / p.window
	for b >= timeline.DefaultMaxBins {
		p.rescale()
		b = cycle / p.window
	}
	li := p.base[u] + ai
	row := p.rows[li]
	for int64(len(row)) <= b {
		row = append(row, 0)
	}
	row[b]++
	p.rows[li] = row
}

// rescale merges adjacent window pairs on every row and doubles the
// shared window.
func (p *linkProbe) rescale() {
	for li, row := range p.rows {
		if len(row) == 0 {
			continue
		}
		half := (len(row) + 1) / 2
		for i := 0; i < half; i++ {
			row[i] = row[2*i]
			if 2*i+1 < len(row) {
				row[i] += row[2*i+1]
			}
		}
		p.rows[li] = row[:half]
	}
	p.window *= 2
}

// series exports one sampler per link that carried traffic, named
// <prefix>link/<u>-<v> (wireless links gain a /w<channel> suffix).
func (p *linkProbe) series(prefix string) []timeline.Series {
	t := p.rt.topo
	var out []timeline.Series
	for u := 0; u < t.NumSwitches(); u++ {
		for ai, l := range t.Adj[u] {
			row := p.rows[p.base[u]+ai]
			if len(row) == 0 {
				continue
			}
			name := fmt.Sprintf("%slink/%d-%d", prefix, u, l.To)
			if l.Type == topo.Wireless {
				name = fmt.Sprintf("%s/w%d", name, l.Channel)
			}
			vals := make([]float64, len(row))
			copy(vals, row)
			out = append(out, timeline.Series{
				Meta:   timeline.Meta{Name: name, IndexUnit: "cycles", Unit: "flits"},
				Kind:   timeline.KindSampler,
				Agg:    timeline.Sum.String(),
				Window: p.window,
				Values: vals,
			})
		}
	}
	return out
}

// RunDESTimeline is RunDES plus instrumentation: the returned DESStats add
// every delivered packet's latency and the per-link flit counts, and the
// returned series hold one flits-per-window sampler per active link (the
// link heatmap, shared time axis) and a packet-latency histogram named
// <prefix>latency. All captures ride the one simulation as hooks, so the
// DESStats aggregates match a plain run exactly.
func RunDESTimeline(rt *RouteTable, packets []Packet, nm energy.NetworkModel, cfg DESConfig, prefix string) (*DESStats, []timeline.Series, error) {
	probe := newLinkProbe(rt, DefaultLinkWindow)
	hist := timeline.NewHistogram(timeline.Meta{Name: prefix + "latency", IndexUnit: "cycles", Unit: "cycles"})
	lats := make([]int64, 0, len(packets))
	base, err := runDESHooked(rt, packets, nm, cfg, desHooks{
		onDeliver: func(id int, latency int64) {
			lats = append(lats, latency)
			hist.Observe(latency)
		},
		onForward: probe.record,
	})
	if err != nil {
		return nil, nil, err
	}
	stats := &DESStats{DESResult: base}
	stats.Links = staticLinkStats(rt, packets, base.Cycles)
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	stats.Latencies = lats

	series := probe.series(prefix)
	series = append(series, hist.Series())
	return stats, series, nil
}
