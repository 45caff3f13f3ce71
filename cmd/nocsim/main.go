// Command nocsim runs the interconnect in isolation: it builds a topology
// (mesh or WiNoC), synthesizes traffic, and evaluates it with both the
// analytic model and the cycle-accurate wormhole simulator.
//
// Usage:
//
//	nocsim -topo winoc -pattern uniform -inj 0.05 [-des] [-packets 2000]
//	       [-latency-percentiles] [-timeline dir]
//	       [-trace file.json] [-manifest file.json] [-v] [-debug-addr addr]
//
// -latency-percentiles appends a p50/p90/p95/p99 packet-latency line after
// the -des block; without it stdout is byte-identical to before the flag
// existed. -timeline writes per-link flit series and the packet-latency
// histogram (timeline.json + CSVs) to the given directory. The telemetry
// flags behave exactly as in cmd/reproduce: they never touch stdout.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"wivfi/internal/energy"
	"wivfi/internal/noc"
	"wivfi/internal/obs"
	"wivfi/internal/place"
	"wivfi/internal/platform"
	"wivfi/internal/timeline"
	"wivfi/internal/topo"
)

func main() {
	var (
		topoName = flag.String("topo", "winoc", "topology: mesh | winoc")
		pattern  = flag.String("pattern", "uniform", "traffic: uniform | hotspot | corners")
		inj      = flag.Float64("inj", 0.05, "injection rate (flits/cycle/node)")
		des      = flag.Bool("des", false, "also run the cycle-accurate simulator")
		sweep    = flag.Bool("sweep", false, "run a saturation-throughput sweep (cycle-accurate)")
		packets  = flag.Int("packets", 2000, "packet count for -des")
		seed     = flag.Int64("seed", 1, "rng seed")
		latPct   = flag.Bool("latency-percentiles", false, "print p50/p90/p95/p99 packet latency after -des")
	)
	cli := obs.NewCLI(flag.CommandLine, true)
	flag.Parse()
	if err := cli.Start("nocsim"); err != nil {
		fatal(err)
	}

	chip := platform.DefaultChip()
	costs := noc.DefaultLinkCosts()
	var tp *topo.Topology
	var mode noc.RoutingMode
	var err error
	switch *topoName {
	case "mesh":
		tp = topo.Mesh(chip)
		mode = noc.XY
	case "winoc":
		tp, err = place.BuildTopology(chip, nil, place.CenterWIs(chip), topo.DefaultSmallWorldConfig())
		if err != nil {
			fatal(err)
		}
		mode = noc.UpDown
	default:
		fatal(fmt.Errorf("unknown topology %q", *topoName))
	}
	rt, err := noc.BuildRoutes(tp, costs, mode)
	if err != nil {
		fatal(err)
	}
	n := tp.NumSwitches()
	rng := rand.New(rand.NewSource(*seed))
	traffic := buildTraffic(*pattern, n, *inj, rng)

	nm := energy.DefaultNetworkModel()
	sp := obs.StartSpan("analytic", tp.Name)
	ana, err := noc.Analytic(rt, traffic, nm, noc.DefaultAnalyticConfig())
	sp.End()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s/%v, %s traffic at %.3f flits/cycle/node\n", tp.Name, mode, *pattern, *inj)
	fmt.Printf("  switches %d, avg degree %.2f, max degree %d, wireless interfaces %d\n",
		n, tp.AvgDegree(), tp.MaxDegree(), len(tp.WIs))
	fmt.Printf("  analytic: latency %.1f cycles, %.2f hops, %.1f pJ/flit, wireless share %.1f%%, max util %.2f\n",
		ana.AvgLatencyCycles, ana.AvgHops, ana.EnergyPJPerFlit, 100*ana.WirelessFraction, ana.MaxLinkUtilization)

	if *des {
		pkts := make([]noc.Packet, 0, *packets)
		horizon := int64(float64(*packets*4) / (*inj * float64(n)) * 1.2)
		sampler := newTrafficSampler(traffic)
		for i := 0; i < *packets; i++ {
			s, d := sampler.pick(rng)
			pkts = append(pkts, noc.Packet{
				ID: i, Src: s, Dst: d, Flits: 4,
				Inject: rng.Int63n(horizon + 1),
			})
		}
		sp := obs.StartSpan("des", tp.Name)
		res, series, err := noc.RunDESTimeline(rt, pkts, nm, noc.DefaultDESConfig(), "noc/"+*pattern+"/")
		sp.End()
		if err != nil {
			fatal(err)
		}
		timeline.Active().AddSeries(series...)
		pjPerFlit := res.EnergyPJ / float64(res.Delivered*4)
		fmt.Printf("  des:      latency %.1f cycles (p50 %d, p99 %d, max %d), %.1f pJ/flit, wireless flit-hops %.1f%%, %d cycles\n",
			res.AvgLatencyCycles, res.Percentile(0.5), res.Percentile(0.99), res.MaxLatencyCycles, pjPerFlit,
			100*float64(res.WirelessFlitHops)/float64(res.TotalFlitHops+1), res.Cycles)
		hot := res.HottestLink()
		fmt.Printf("  hottest link: %d -> %d (util %.2f, %d flits)\n", hot.From, hot.To, hot.Utilization, hot.Flits)
		if *latPct {
			fmt.Printf("  latency percentiles: p50 %d, p90 %d, p95 %d, p99 %d cycles\n",
				res.Percentile(0.5), res.Percentile(0.9), res.Percentile(0.95), res.Percentile(0.99))
		}
	}
	if *sweep {
		rates := []float64{0.02, 0.05, 0.1, 0.15, 0.2, 0.3}
		sp := obs.StartSpan("sweep", tp.Name)
		points, err := noc.SaturationSweep(rt, rates, *packets, 4, nm, noc.DefaultDESConfig(), *seed)
		sp.End()
		if err != nil {
			fatal(err)
		}
		fmt.Println("  saturation sweep (uniform random, cycle-accurate):")
		for _, pt := range points {
			fmt.Printf("    inj=%.2f latency=%.1f cycles\n", pt.InjectionRate, pt.AvgLatency)
		}
	}
	if err := cli.Finish(nil); err != nil {
		fatal(err)
	}
}

// buildTraffic synthesizes a named traffic matrix at the injection rate.
func buildTraffic(pattern string, n int, inj float64, rng *rand.Rand) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	switch pattern {
	case "uniform":
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					m[i][j] = inj / float64(n-1)
				}
			}
		}
	case "hotspot":
		// 20% of traffic converges on switch 0
		for i := 1; i < n; i++ {
			m[i][0] = inj * 0.2
			for j := 0; j < n; j++ {
				if j != i && j != 0 {
					m[i][j] = inj * 0.8 / float64(n-2)
				}
			}
		}
	case "corners":
		corners := []int{0, 7, 56, 63}
		for _, s := range corners {
			for _, d := range corners {
				if s != d {
					m[s][d] = inj * float64(n) / 12
				}
			}
		}
	default:
		fatal(fmt.Errorf("unknown pattern %q", pattern))
	}
	_ = rng
	return m
}

// trafficSampler draws (src, dst) pairs proportional to a traffic matrix.
// The matrix total and a row-major flattened copy are computed once; the
// per-call selection walk subtracts entries one by one in the same order
// as the original nested scan, so the sampled sequence (and downstream
// stdout) is unchanged while the per-call cost drops from a full n^2
// matrix rescan to a single early-exiting pass over a flat slice.
type trafficSampler struct {
	n     int
	flat  []float64
	total float64
}

func newTrafficSampler(m [][]float64) *trafficSampler {
	s := &trafficSampler{n: len(m), flat: make([]float64, 0, len(m)*len(m))}
	for i := range m {
		for _, v := range m[i] {
			s.flat = append(s.flat, v)
			s.total += v
		}
	}
	return s
}

func (s *trafficSampler) pick(rng *rand.Rand) (int, int) {
	x := rng.Float64() * s.total
	for k, v := range s.flat {
		x -= v
		if x <= 0 {
			return k / s.n, k % s.n
		}
	}
	return 0, 1
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "nocsim: %v\n", err)
	os.Exit(1)
}
