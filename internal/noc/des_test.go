package noc

import (
	"math"
	"math/rand"
	"testing"
)

func TestDESSinglePacketLatency(t *testing.T) {
	rt := meshRT(t, XY)
	// one 4-flit packet across one hop
	pkts := []Packet{{ID: 0, Src: 0, Dst: 1, Flits: 4, Inject: 0}}
	res, err := RunDES(rt, pkts, defaultNM(), DefaultDESConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 1 {
		t.Fatalf("delivered %d", res.Delivered)
	}
	// pipeline: inject cycle 0, arrive buffer cycle 0.. ejection next
	// cycle; 4 flits over 1 link = at least 4 + pipeline cycles
	if res.AvgLatencyCycles < 4 || res.AvgLatencyCycles > 16 {
		t.Errorf("1-hop 4-flit latency = %v cycles, expected small", res.AvgLatencyCycles)
	}
	if res.TotalFlitHops != 4 {
		t.Errorf("TotalFlitHops = %d, want 4", res.TotalFlitHops)
	}
	if res.EnergyPJ <= 0 {
		t.Error("no energy accounted")
	}
}

func TestDESLatencyScalesWithDistance(t *testing.T) {
	rt := meshRT(t, XY)
	near, err := RunDES(rt, []Packet{{ID: 0, Src: 0, Dst: 1, Flits: 4}}, defaultNM(), DefaultDESConfig())
	if err != nil {
		t.Fatal(err)
	}
	far, err := RunDES(rt, []Packet{{ID: 0, Src: 0, Dst: 63, Flits: 4}}, defaultNM(), DefaultDESConfig())
	if err != nil {
		t.Fatal(err)
	}
	if far.AvgLatencyCycles <= near.AvgLatencyCycles {
		t.Errorf("14-hop latency %v not above 1-hop %v", far.AvgLatencyCycles, near.AvgLatencyCycles)
	}
	if far.TotalFlitHops != 4*14 {
		t.Errorf("far TotalFlitHops = %d, want 56", far.TotalFlitHops)
	}
}

func TestDESLocalPacket(t *testing.T) {
	rt := meshRT(t, XY)
	res, err := RunDES(rt, []Packet{{ID: 0, Src: 5, Dst: 5, Flits: 4, Inject: 10}}, defaultNM(), DefaultDESConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 1 || res.TotalFlitHops != 0 {
		t.Errorf("local packet: delivered=%d hops=%d", res.Delivered, res.TotalFlitHops)
	}
}

func TestDESManyPacketsAllDelivered(t *testing.T) {
	rt := meshRT(t, XY)
	rng := rand.New(rand.NewSource(1))
	var pkts []Packet
	for i := 0; i < 500; i++ {
		s := rng.Intn(64)
		d := rng.Intn(64)
		pkts = append(pkts, Packet{ID: i, Src: s, Dst: d, Flits: 4, Inject: int64(rng.Intn(2000))})
	}
	res, err := RunDES(rt, pkts, defaultNM(), DefaultDESConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 500 {
		t.Fatalf("delivered %d of 500", res.Delivered)
	}
	if res.Stalled != 0 {
		t.Fatalf("%d packets stalled", res.Stalled)
	}
}

func TestDESWiNoCDeliversUnderUpDown(t *testing.T) {
	rt := winocRT(t, UpDown)
	rng := rand.New(rand.NewSource(2))
	var pkts []Packet
	for i := 0; i < 500; i++ {
		pkts = append(pkts, Packet{
			ID: i, Src: rng.Intn(64), Dst: rng.Intn(64), Flits: 4,
			Inject: int64(rng.Intn(3000)),
		})
	}
	res, err := RunDES(rt, pkts, defaultNM(), DefaultDESConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 500 || res.Stalled != 0 {
		t.Fatalf("delivered %d, stalled %d", res.Delivered, res.Stalled)
	}
	if res.WirelessFlitHops == 0 {
		t.Error("no wireless usage on WiNoC under random traffic")
	}
}

func TestDESWirelessChannelSerializes(t *testing.T) {
	rt := winocRT(t, UpDown)
	tp := rt.Topology()
	// pick two WI pairs on the same channel and hammer flows between them
	byCh := map[int][]int{}
	for _, wi := range tp.WIs {
		byCh[tp.ChannelOf[wi]] = append(byCh[tp.ChannelOf[wi]], wi)
	}
	var members []int
	for _, ms := range byCh {
		if len(ms) >= 4 {
			members = ms
			break
		}
	}
	if len(members) < 4 {
		t.Skip("no channel with 4 WIs")
	}
	// flows across the channel from two different sources at once
	var pkts []Packet
	id := 0
	for i := 0; i < 40; i++ {
		pkts = append(pkts, Packet{ID: id, Src: members[0], Dst: members[1], Flits: 4, Inject: int64(i * 4)})
		id++
		pkts = append(pkts, Packet{ID: id, Src: members[2], Dst: members[3], Flits: 4, Inject: int64(i * 4)})
		id++
	}
	res, err := RunDES(rt, pkts, defaultNM(), DefaultDESConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != len(pkts) {
		t.Fatalf("delivered %d of %d", res.Delivered, len(pkts))
	}
	// solo run of just the first flow for comparison
	solo, err := RunDES(rt, pkts[:1], defaultNM(), DefaultDESConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgLatencyCycles <= solo.AvgLatencyCycles {
		t.Errorf("token contention should raise latency: %v <= %v",
			res.AvgLatencyCycles, solo.AvgLatencyCycles)
	}
}

func TestDESDeterministic(t *testing.T) {
	rt := winocRT(t, UpDown)
	rng := rand.New(rand.NewSource(3))
	var pkts []Packet
	for i := 0; i < 200; i++ {
		pkts = append(pkts, Packet{ID: i, Src: rng.Intn(64), Dst: rng.Intn(64), Flits: 4, Inject: int64(rng.Intn(1000))})
	}
	a, err := RunDES(rt, pkts, defaultNM(), DefaultDESConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDES(rt, pkts, defaultNM(), DefaultDESConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgLatencyCycles != b.AvgLatencyCycles || a.EnergyPJ != b.EnergyPJ || a.Cycles != b.Cycles {
		t.Errorf("non-deterministic DES: %+v vs %+v", a, b)
	}
}

func TestDESEnergyMatchesPathEnergy(t *testing.T) {
	// For a single packet the DES energy must equal flits x route energy.
	rt := meshRT(t, XY)
	nm := defaultNM()
	pkts := []Packet{{ID: 0, Src: 3, Dst: 42, Flits: 4}}
	res, err := RunDES(rt, pkts, nm, DefaultDESConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * pathEnergyPJ(rt, 3, 42, nm)
	if math.Abs(res.EnergyPJ-want) > 1e-6 {
		t.Errorf("DES energy %v != 4x path energy %v", res.EnergyPJ, want)
	}
}

func TestDESBufferDepthMatters(t *testing.T) {
	// Tiny buffers throttle a burst more than deep buffers.
	rt := meshRT(t, XY)
	var pkts []Packet
	for i := 0; i < 50; i++ {
		pkts = append(pkts, Packet{ID: i, Src: 0, Dst: 63, Flits: 4, Inject: 0})
	}
	shallow := DefaultDESConfig()
	shallow.BufDepthFlits = 1
	deep := DefaultDESConfig()
	deep.BufDepthFlits = 8
	rs, err := RunDES(rt, pkts, defaultNM(), shallow)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := RunDES(rt, pkts, defaultNM(), deep)
	if err != nil {
		t.Fatal(err)
	}
	if rd.AvgLatencyCycles > rs.AvgLatencyCycles {
		t.Errorf("deep buffers slower than shallow: %v > %v", rd.AvgLatencyCycles, rs.AvgLatencyCycles)
	}
}

func TestDESRejectsBadInput(t *testing.T) {
	rt := meshRT(t, XY)
	if _, err := RunDES(rt, []Packet{{Src: -1, Dst: 2, Flits: 4}}, defaultNM(), DefaultDESConfig()); err == nil {
		t.Error("bad src accepted")
	}
	if _, err := RunDES(rt, []Packet{{Src: 0, Dst: 2, Flits: 0}}, defaultNM(), DefaultDESConfig()); err == nil {
		t.Error("zero flits accepted")
	}
	if _, err := RunDES(rt, nil, defaultNM(), DESConfig{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestDESAgreesWithAnalyticAtLowLoad(t *testing.T) {
	// Cross-validation: at light random load the analytic mean latency must
	// sit within ~40% of the cycle-accurate result (contention nearly nil,
	// so both should approach the routed base latency).
	rt := meshRT(t, XY)
	rng := rand.New(rand.NewSource(4))
	n := 64
	traffic := zeroTraffic(n)
	var pkts []Packet
	id := 0
	horizon := 40000
	// 80 sparse flows
	for k := 0; k < 80; k++ {
		s, d := rng.Intn(n), rng.Intn(n)
		if s == d {
			continue
		}
		rate := 0.001 + 0.002*rng.Float64() // flits/cycle
		traffic[s][d] += rate
		period := int(4 / rate) // one 4-flit packet per period
		for c := 0; c < horizon; c += period {
			pkts = append(pkts, Packet{ID: id, Src: s, Dst: d, Flits: 4, Inject: int64(c + rng.Intn(period/2))})
			id++
		}
	}
	des, err := RunDES(rt, pkts, defaultNM(), DefaultDESConfig())
	if err != nil {
		t.Fatal(err)
	}
	ana, err := Analytic(rt, traffic, defaultNM(), DefaultAnalyticConfig())
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := ana.AvgLatencyCycles*0.6, ana.AvgLatencyCycles*1.6
	if des.AvgLatencyCycles < lo || des.AvgLatencyCycles > hi {
		t.Errorf("DES latency %v outside [%v, %v] around analytic %v",
			des.AvgLatencyCycles, lo, hi, ana.AvgLatencyCycles)
	}
	// energy per flit should agree closely (same routes, same constants)
	desPJPerFlit := des.EnergyPJ / float64(len(pkts)*4)
	if math.Abs(desPJPerFlit-ana.EnergyPJPerFlit)/ana.EnergyPJPerFlit > 0.1 {
		t.Errorf("per-flit energy: DES %v vs analytic %v", desPJPerFlit, ana.EnergyPJPerFlit)
	}
}
