package noc

import (
	"math"
	"math/rand"
	"testing"
)

func TestInstrumentedMatchesPlainRun(t *testing.T) {
	rt := meshRT(t, XY)
	rng := rand.New(rand.NewSource(1))
	var pkts []Packet
	for i := 0; i < 300; i++ {
		pkts = append(pkts, Packet{
			ID: i, Src: rng.Intn(64), Dst: rng.Intn(64), Flits: 4,
			Inject: int64(rng.Intn(2000)),
		})
	}
	plain, err := RunDES(rt, pkts, defaultNM(), DefaultDESConfig())
	if err != nil {
		t.Fatal(err)
	}
	inst, _, err := RunDESTimeline(rt, pkts, defaultNM(), DefaultDESConfig(), "")
	if err != nil {
		t.Fatal(err)
	}
	if inst.Delivered != plain.Delivered || inst.AvgLatencyCycles != plain.AvgLatencyCycles {
		t.Errorf("instrumented diverges: %+v vs %+v", inst.DESResult, plain)
	}
	if len(inst.Latencies) != plain.Delivered {
		t.Fatalf("%d latencies for %d deliveries", len(inst.Latencies), plain.Delivered)
	}
	// the latency list must reproduce the aggregate mean and max
	var sum float64
	for i, l := range inst.Latencies {
		sum += float64(l)
		if i > 0 && l < inst.Latencies[i-1] {
			t.Fatal("latencies not sorted")
		}
	}
	if math.Abs(sum/float64(len(inst.Latencies))-plain.AvgLatencyCycles) > 1e-9 {
		t.Errorf("latency mean %v != aggregate %v", sum/float64(len(inst.Latencies)), plain.AvgLatencyCycles)
	}
	if inst.Latencies[len(inst.Latencies)-1] != plain.MaxLatencyCycles {
		t.Errorf("latency max %d != aggregate %d", inst.Latencies[len(inst.Latencies)-1], plain.MaxLatencyCycles)
	}
}

func TestInstrumentedLinkConservation(t *testing.T) {
	rt := meshRT(t, XY)
	pkts := []Packet{
		{ID: 0, Src: 0, Dst: 7, Flits: 4},
		{ID: 1, Src: 8, Dst: 8, Flits: 4}, // local: no link traffic
		{ID: 2, Src: 63, Dst: 0, Flits: 2},
	}
	inst, _, err := RunDESTimeline(rt, pkts, defaultNM(), DefaultDESConfig(), "")
	if err != nil {
		t.Fatal(err)
	}
	var linkFlits int64
	for _, ls := range inst.Links {
		linkFlits += ls.Flits
		if ls.Utilization < 0 || ls.Utilization > 1 {
			t.Errorf("link %d->%d utilization %v", ls.From, ls.To, ls.Utilization)
		}
	}
	// flit-hops: 4 flits x 7 hops + 2 flits x 14 hops
	want := int64(4*7 + 2*14)
	if linkFlits != want {
		t.Errorf("link flits %d, want %d", linkFlits, want)
	}
	if inst.TotalFlitHops != want {
		t.Errorf("TotalFlitHops %d, want %d", inst.TotalFlitHops, want)
	}
	hot := inst.HottestLink()
	if hot.Flits == 0 {
		t.Error("no hottest link")
	}
	// hottest-first ordering
	for i := 1; i < len(inst.Links); i++ {
		if inst.Links[i].Flits > inst.Links[i-1].Flits {
			t.Fatal("links not sorted by flits")
		}
	}
}

func TestPercentiles(t *testing.T) {
	s := &DESStats{Latencies: []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}}
	cases := []struct {
		p    float64
		want int64
	}{
		{0.0, 10},
		{0.5, 50},
		{0.9, 90},
		{1.0, 100},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); got != c.want {
			t.Errorf("P%.0f = %d, want %d", c.p*100, got, c.want)
		}
	}
	empty := &DESStats{}
	if empty.Percentile(0.5) != 0 {
		t.Error("empty percentile should be 0")
	}
	if empty.HottestLink().Flits != 0 {
		t.Error("empty hottest link should be zero")
	}
}

func TestPercentileRejectsBadP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Percentile(2) did not panic")
		}
	}()
	(&DESStats{Latencies: []int64{1}}).Percentile(2)
}

func TestPercentileRejectsNegativeP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Percentile(-0.1) did not panic")
		}
	}()
	(&DESStats{Latencies: []int64{1}}).Percentile(-0.1)
}

// TestPercentileSingleSample: with one delivered packet every valid p,
// including the p=0 edge whose index computation floors below zero, must
// return that one sample.
func TestPercentileSingleSample(t *testing.T) {
	s := &DESStats{Latencies: []int64{42}}
	for _, p := range []float64{0, 0.25, 0.5, 0.999, 1} {
		if got := s.Percentile(p); got != 42 {
			t.Errorf("Percentile(%v) = %d, want 42", p, got)
		}
	}
}

// TestHottestLinkSingleLinkTable: a single one-hop packet produces exactly
// one link stat, which HottestLink must return (rather than the zero
// LinkStat reserved for empty tables).
func TestHottestLinkSingleLinkTable(t *testing.T) {
	rt := meshRT(t, XY)
	pkts := []Packet{{ID: 0, Src: 0, Dst: 1, Flits: 3}}
	inst, _, err := RunDESTimeline(rt, pkts, defaultNM(), DefaultDESConfig(), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Links) != 1 {
		t.Fatalf("%d link stats for a one-hop packet, want 1", len(inst.Links))
	}
	hot := inst.HottestLink()
	if hot != inst.Links[0] {
		t.Errorf("HottestLink %+v != only link %+v", hot, inst.Links[0])
	}
	if hot.From != 0 || hot.To != 1 || hot.Flits != 3 {
		t.Errorf("hottest link %+v, want 0->1 with 3 flits", hot)
	}
	if hot.Utilization <= 0 || hot.Utilization > 1 {
		t.Errorf("utilization %v outside (0,1]", hot.Utilization)
	}
}

func TestSaturationSweepLatencyGrowsWithLoad(t *testing.T) {
	rt := meshRT(t, XY)
	rates := []float64{0.01, 0.05, 0.15}
	points, err := SaturationSweep(rt, rates, 600, 4, defaultNM(), DefaultDESConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("%d points", len(points))
	}
	for i, pt := range points {
		if pt.Delivered != 600 {
			t.Errorf("rate %v delivered %d of 600", pt.InjectionRate, pt.Delivered)
		}
		if i > 0 && pt.AvgLatency < points[i-1].AvgLatency-1 {
			t.Errorf("latency dropped with load: %v -> %v", points[i-1].AvgLatency, pt.AvgLatency)
		}
	}
	if points[2].AvgLatency <= points[0].AvgLatency {
		t.Errorf("no congestion signal across the sweep: %v", points)
	}
}

func TestSaturationSweepRejectsBadRate(t *testing.T) {
	rt := meshRT(t, XY)
	if _, err := SaturationSweep(rt, []float64{0}, 10, 4, defaultNM(), DefaultDESConfig(), 1); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestSplitMixDeterministic(t *testing.T) {
	a, b := newSplitMix(42), newSplitMix(42)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("splitmix not deterministic")
		}
	}
	c := newSplitMix(43)
	same := 0
	a = newSplitMix(42)
	for i := 0; i < 100; i++ {
		if a.next() == c.next() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collide %d/100 times", same)
	}
}

// TestUniformTrafficInjectionSpread is the regression test for the
// quantized injection draw: times must cover [0, horizon) at full
// precision, not collapse onto 1000 coarse slots (or onto cycle 0 when the
// horizon is smaller than 1000 cycles).
func TestUniformTrafficInjectionSpread(t *testing.T) {
	const n, packets = 64, 4000
	for _, horizon := range []float64{500, 1e6} {
		pkts := uniformTraffic(n, packets, 4, horizon, 7)
		if len(pkts) != packets {
			t.Fatalf("horizon %v: %d packets", horizon, len(pkts))
		}
		distinct := map[int64]bool{}
		var max int64
		for _, p := range pkts {
			if p.Inject < 0 || float64(p.Inject) >= horizon {
				t.Fatalf("horizon %v: injection %d outside [0, %v)", horizon, p.Inject, horizon)
			}
			distinct[p.Inject] = true
			if p.Inject > max {
				max = p.Inject
			}
		}
		// The old draw had at most 1000 distinct values at any horizon and
		// exactly one (cycle 0) when horizon < 1000. With 4000 uniform
		// draws over a large horizon, collisions are rare: demand far more
		// than 1000 distinct times at horizon 1e6, and a wide spread at
		// horizon 500.
		if horizon >= 1e6 && len(distinct) <= 3500 {
			t.Errorf("horizon %v: only %d distinct injection times for %d packets", horizon, len(distinct), packets)
		}
		if horizon == 500 && len(distinct) < 400 {
			t.Errorf("horizon %v: only %d distinct injection times (old code gave 1)", horizon, len(distinct))
		}
		if float64(max) < 0.9*horizon {
			t.Errorf("horizon %v: max injection %d does not reach the tail", horizon, max)
		}
	}
}

// TestSaturationSweepUsesFullHorizon: end to end, the lowest offered rate
// (largest horizon) must produce a longer simulated run than the quantized
// draw could ever have, i.e. delivery spreads across the real horizon.
func TestSaturationSweepUsesFullHorizon(t *testing.T) {
	rt := meshRT(t, XY)
	points, err := SaturationSweep(rt, []float64{0.001}, 600, 4, defaultNM(), DefaultDESConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if points[0].Delivered != 600 {
		t.Fatalf("delivered %d of 600", points[0].Delivered)
	}
}
