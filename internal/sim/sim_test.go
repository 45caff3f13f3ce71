package sim

import (
	"math"
	"testing"

	"wivfi/internal/noc"
	"wivfi/internal/platform"
	"wivfi/internal/sched"
	"wivfi/internal/topo"
)

// rebuildMeshRoutes rebuilds XY mesh routes with altered link costs.
func rebuildMeshRoutes(s *System, costs noc.LinkCosts) (*noc.RouteTable, error) {
	return noc.BuildRoutes(topo.Mesh(s.Chip), costs, noc.XY)
}

// testWorkload builds a small but complete workload on 64 threads:
// libinit (master only) -> map -> reduce -> merge.
func testWorkload() *Workload {
	n := 64
	all := AllThreads(n)
	libWork := make([]float64, n)
	libWork[0] = 0.2e9 // master busy 80 ms at 2.5 GHz
	libMem := make([]float64, n)
	libMem[0] = 1e5

	redWork := make([]float64, n)
	redMem := make([]float64, n)
	for i := range redWork {
		redWork[i] = 0.1e9
		redMem[i] = 5e4
	}
	mergeWork := make([]float64, n)
	for i := 0; i < 8; i++ {
		mergeWork[i] = 0.05e9
	}
	return &Workload{
		Name:    "test",
		Threads: n,
		Phases: []Phase{
			{
				Kind:       LibInit,
				WorkCycles: libWork,
				MemOps:     libMem,
				Traffic:    TrafficMaster(n, 0, 2e4),
			},
			{
				Kind:       Map,
				Tasks:      256,
				TaskCycles: 0.05e9,
				TaskSpread: 0.1,
				TaskMemOps: 2e4,
				Traffic:    TrafficUniform(n, all, 5e5),
			},
			{
				Kind:       Reduce,
				WorkCycles: redWork,
				MemOps:     redMem,
				Traffic:    TrafficKeyExchange(n, all, 2e4),
			},
			{
				Kind:       Merge,
				WorkCycles: mergeWork,
				Traffic:    TrafficConvergent(n, []int{4, 5, 6, 7}, []int{0, 1, 2, 3}, 1e4),
			},
		},
	}
}

func nvfi(t *testing.T) *System {
	t.Helper()
	s, err := NVFIMesh(DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWorkloadValidate(t *testing.T) {
	w := testWorkload()
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Workload{Name: "x", Threads: 0}
	if err := bad.Validate(); err == nil {
		t.Error("zero threads accepted")
	}
	w2 := testWorkload()
	w2.Phases[0].WorkCycles = w2.Phases[0].WorkCycles[:3]
	if err := w2.Validate(); err == nil {
		t.Error("short work vector accepted")
	}
	w3 := testWorkload()
	w3.Phases[1].Tasks = 0
	if err := w3.Validate(); err == nil {
		t.Error("map phase without tasks accepted")
	}
}

func TestRunProducesSaneResult(t *testing.T) {
	w := testWorkload()
	s := nvfi(t)
	res, err := Run(w, s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.ExecSeconds <= 0 {
		t.Fatal("zero execution time")
	}
	if res.Report.TotalJ() <= 0 {
		t.Fatal("zero energy")
	}
	if len(res.Phases) != 4 {
		t.Fatalf("%d phases", len(res.Phases))
	}
	// phase kinds in order
	wantKinds := []PhaseKind{LibInit, Map, Reduce, Merge}
	var sum float64
	for i, ph := range res.Phases {
		if ph.Kind != wantKinds[i] {
			t.Errorf("phase %d kind %v", i, ph.Kind)
		}
		if ph.Seconds <= 0 {
			t.Errorf("phase %v has zero duration", ph.Kind)
		}
		sum += ph.Seconds
	}
	if math.Abs(sum-res.Report.ExecSeconds) > 1e-9 {
		t.Error("phase durations do not sum to total")
	}
	// libinit busy only on master
	lib := res.Phases[0]
	for th := 1; th < 64; th++ {
		if lib.BusySec[th] != 0 {
			t.Fatalf("thread %d busy during libinit", th)
		}
	}
	if lib.BusySec[0] <= 0 {
		t.Fatal("master idle during libinit")
	}
	// network energy accounted
	if res.Report.NetworkJ <= 0 {
		t.Error("no network energy")
	}
}

func TestProfileDerivation(t *testing.T) {
	w := testWorkload()
	s := nvfi(t)
	res, err := Run(w, s)
	if err != nil {
		t.Fatal(err)
	}
	prof := res.Profile()
	if err := prof.Validate(); err != nil {
		t.Fatal(err)
	}
	// master (thread 0) must have above-average utilization: it works in
	// every phase including libinit and merge
	mean := 0.0
	for _, u := range prof.Util {
		mean += u
	}
	mean /= 64
	if prof.Util[0] <= mean {
		t.Errorf("master utilization %v not above mean %v", prof.Util[0], mean)
	}
	if prof.TotalTraffic() <= 0 {
		t.Error("profile has no traffic")
	}
}

func TestVFISlowdownAndEnergySavings(t *testing.T) {
	// The core claim of VFI: running half the islands slower must save
	// energy at a bounded execution-time cost.
	w := testWorkload()
	base := nvfi(t)
	baseRes, err := Run(w, base)
	if err != nil {
		t.Fatal(err)
	}
	// hand-built VFI: islands of 16 threads, two at 1.0/2.5, two at 0.8/2.0
	assign := make([]int, 64)
	for i := range assign {
		assign[i] = i / 16
	}
	vfiCfg := platform.VFIConfig{
		Assign: assign,
		Points: []platform.OperatingPoint{
			{VoltageV: 1.0, FreqGHz: 2.5},
			{VoltageV: 1.0, FreqGHz: 2.5},
			{VoltageV: 0.8, FreqGHz: 2.0},
			{VoltageV: 0.8, FreqGHz: 2.0},
		},
	}
	prof := baseRes.Profile()
	vfiSys, err := VFIMesh(DefaultBuildConfig(), vfiCfg, prof.Traffic)
	if err != nil {
		t.Fatal(err)
	}
	vfiRes, err := Run(w, vfiSys)
	if err != nil {
		t.Fatal(err)
	}
	execR, enR, edpR := vfiRes.Report.Relative(baseRes.Report)
	if execR < 1.0 {
		t.Errorf("VFI system faster than baseline: %v", execR)
	}
	if execR > 1.30 {
		t.Errorf("VFI slowdown %v unreasonably high", execR)
	}
	if enR >= 1.0 {
		t.Errorf("VFI did not save energy: ratio %v", enR)
	}
	if edpR >= 1.0 {
		t.Errorf("VFI did not improve EDP: ratio %v", edpR)
	}
}

func TestWiNoCImprovesOnVFIMesh(t *testing.T) {
	w := testWorkload()
	base := nvfi(t)
	baseRes, err := Run(w, base)
	if err != nil {
		t.Fatal(err)
	}
	prof := baseRes.Profile()
	assign := make([]int, 64)
	for i := range assign {
		assign[i] = i / 16
	}
	vfiCfg := platform.VFIConfig{
		Assign: assign,
		Points: []platform.OperatingPoint{
			{VoltageV: 1.0, FreqGHz: 2.5},
			{VoltageV: 1.0, FreqGHz: 2.5},
			{VoltageV: 0.8, FreqGHz: 2.0},
			{VoltageV: 0.8, FreqGHz: 2.0},
		},
	}
	cfg := DefaultBuildConfig()
	meshSys, err := VFIMesh(cfg, vfiCfg, prof.Traffic)
	if err != nil {
		t.Fatal(err)
	}
	winocSys, err := VFIWiNoC(cfg, vfiCfg, prof.Traffic, MaxWireless)
	if err != nil {
		t.Fatal(err)
	}
	meshRes, err := Run(w, meshSys)
	if err != nil {
		t.Fatal(err)
	}
	winocRes, err := Run(w, winocSys)
	if err != nil {
		t.Fatal(err)
	}
	// WiNoC must not be slower than the VFI mesh and must cut network
	// energy (the premise of Figs. 7 and 8).
	if winocRes.Report.ExecSeconds > meshRes.Report.ExecSeconds*1.005 {
		t.Errorf("WiNoC exec %v above VFI mesh %v", winocRes.Report.ExecSeconds, meshRes.Report.ExecSeconds)
	}
	if winocRes.Report.NetworkJ >= meshRes.Report.NetworkJ {
		t.Errorf("WiNoC network energy %v not below mesh %v", winocRes.Report.NetworkJ, meshRes.Report.NetworkJ)
	}
	if winocRes.Report.EDP() >= meshRes.Report.EDP() {
		t.Errorf("WiNoC EDP %v not below VFI mesh %v", winocRes.Report.EDP(), meshRes.Report.EDP())
	}
	_, _, edpR := winocRes.Report.Relative(baseRes.Report)
	if edpR >= 1.0 {
		t.Errorf("WiNoC EDP ratio vs NVFI = %v, want < 1", edpR)
	}
}

func TestSystemValidate(t *testing.T) {
	s := nvfi(t)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *s
	bad.NetClockGHz = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero net clock accepted")
	}
	bad2 := *s
	bad2.Routes = nil
	if err := bad2.Validate(); err == nil {
		t.Error("missing routes accepted")
	}
}

func TestRunRejectsMismatchedWorkload(t *testing.T) {
	w := testWorkload()
	w.Threads = 32
	w.Phases = w.Phases[1:2] // keep only map (no per-thread vectors)
	s := nvfi(t)
	if _, err := Run(w, s); err == nil {
		t.Error("thread-count mismatch accepted")
	}
}

func TestSecondsByKind(t *testing.T) {
	w := testWorkload()
	s := nvfi(t)
	res, err := Run(w, s)
	if err != nil {
		t.Fatal(err)
	}
	byKind := res.SecondsByKind()
	var sum float64
	for _, v := range byKind {
		sum += v
	}
	if math.Abs(sum-res.Report.ExecSeconds) > 1e-9 {
		t.Error("SecondsByKind does not cover total")
	}
	if byKind[Map] <= 0 {
		t.Error("no map time")
	}
}

func TestTrafficPatterns(t *testing.T) {
	n := 8
	all := AllThreads(n)
	checkTotal := func(name string, m [][]float64, want float64) {
		t.Helper()
		var sum float64
		for i := range m {
			if m[i][i] != 0 {
				t.Fatalf("%s: self traffic at %d", name, i)
			}
			for _, v := range m[i] {
				if v < 0 {
					t.Fatalf("%s: negative entry", name)
				}
				sum += v
			}
		}
		if math.Abs(sum-want) > 1e-9 {
			t.Errorf("%s total = %v, want %v", name, sum, want)
		}
	}
	checkTotal("uniform", TrafficUniform(n, all, 100), 100)
	checkTotal("keyexchange", TrafficKeyExchange(n, all, 10), 10*float64(n))
	checkTotal("neighbor", TrafficNeighbor(n, all, 10, 2), 10*float64(n))
	checkTotal("convergent", TrafficConvergent(n, []int{4, 5}, []int{0, 1}, 7), 14)
	master := TrafficMaster(n, 0, 8)
	if master[0][1] != 8 || master[1][0] != 2 {
		t.Errorf("master pattern wrong: %v", master[0][1])
	}
	// subset activity leaves outsiders untouched
	sub := TrafficUniform(n, []int{1, 2, 3}, 30)
	if sub[0][1] != 0 || sub[4][5] != 0 {
		t.Error("inactive threads received traffic")
	}
}

func TestMemStallCouplesNetworkToExecTime(t *testing.T) {
	// A memory-heavy phase must get slower when the network is slower. Use
	// the same workload on mesh vs a deliberately degraded-latency system.
	w := testWorkload()
	s := nvfi(t)
	res, err := Run(w, s)
	if err != nil {
		t.Fatal(err)
	}
	slow := *s
	costs := s.Routes.Costs()
	costs.RouterCycles *= 8
	slowRoutes, err := rebuildMeshRoutes(s, costs)
	if err != nil {
		t.Fatal(err)
	}
	slow.Routes = slowRoutes
	res2, err := Run(w, &slow)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Report.ExecSeconds <= res.Report.ExecSeconds {
		t.Errorf("slower network did not stretch execution: %v vs %v",
			res2.Report.ExecSeconds, res.Report.ExecSeconds)
	}
}

func TestNoStealingPolicyWiredThrough(t *testing.T) {
	w := testWorkload()
	s := nvfi(t)
	s.Policy = sched.NoStealing
	res, err := Run(w, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range res.Phases {
		if ph.Steals != 0 {
			t.Errorf("steals with NoStealing policy: %d", ph.Steals)
		}
	}
}

func TestTrafficLocalized(t *testing.T) {
	n := 32
	all := AllThreads(n)
	m := TrafficLocalized(n, all, 1000, 0.6, 16)
	var local, global, total float64
	for i := range m {
		if m[i][i] != 0 {
			t.Fatal("self traffic")
		}
		for j, v := range m[i] {
			total += v
			if i/16 == j/16 {
				local += v
			} else {
				global += v
			}
		}
	}
	if math.Abs(total-1000) > 1e-6 {
		t.Errorf("total = %v, want 1000", total)
	}
	// local share = localFrac + (1-localFrac) * (in-block share of uniform)
	// = 0.6 + 0.4*15/31
	want := 0.6 + 0.4*15.0/31.0
	if math.Abs(local/total-want) > 1e-9 {
		t.Errorf("local share = %v, want %v", local/total, want)
	}
	// a thread alone in its block routes everything globally
	solo := TrafficLocalized(n, []int{0, 16, 17}, 300, 0.6, 16)
	if solo[0][16]+solo[0][17] <= 0 {
		t.Error("solo thread sent nothing")
	}
	var soloTotal float64
	for i := range solo {
		for _, v := range solo[i] {
			soloTotal += v
		}
	}
	if math.Abs(soloTotal-300) > 1e-6 {
		t.Errorf("solo total = %v", soloTotal)
	}
}

func TestRunPhasedMatchesRunWithStaticConfigs(t *testing.T) {
	// With every phase pinned to the same configuration and zero
	// transition cost, RunPhased runs Run's phase loop with the same
	// inputs, so it must agree with Run bit for bit.
	w := testWorkload()
	s := nvfi(t)
	static, err := Run(w, s)
	if err != nil {
		t.Fatal(err)
	}
	configs := make([]platform.VFIConfig, len(w.Phases))
	for i := range configs {
		configs[i] = s.VFI
	}
	phased, err := RunPhased(w, s, configs, DVFSTransition{})
	if err != nil {
		t.Fatal(err)
	}
	if phased.Report != static.Report {
		t.Errorf("report differs: %+v vs %+v", phased.Report, static.Report)
	}
	if len(phased.Phases) != len(static.Phases) {
		t.Fatalf("%d phases vs %d", len(phased.Phases), len(static.Phases))
	}
	for i, ph := range phased.Phases {
		want := static.Phases[i]
		if ph.Seconds != want.Seconds || ph.NetJ != want.NetJ {
			t.Errorf("phase %d: seconds %v vs %v, net %v vs %v J", i, ph.Seconds, want.Seconds, ph.NetJ, want.NetJ)
		}
		for th, b := range ph.BusySec {
			if b != want.BusySec[th] {
				t.Errorf("phase %d thread %d busy %v vs %v", i, th, b, want.BusySec[th])
			}
		}
	}
}

func TestRunPhasedTransitionCosts(t *testing.T) {
	w := testWorkload()
	s := nvfi(t)
	// alternate island 0 between two rails each phase
	lowCfg := s.VFI.Clone()
	lowCfg.Points[0] = platform.OperatingPoint{VoltageV: 0.8, FreqGHz: 2.0}
	configs := make([]platform.VFIConfig, len(w.Phases))
	for i := range configs {
		if i%2 == 0 {
			configs[i] = s.VFI
		} else {
			configs[i] = lowCfg
		}
	}
	tr := DVFSTransition{SettleSec: 0.01, EnergyJ: 0.5}
	withCost, err := RunPhased(w, s, configs, tr)
	if err != nil {
		t.Fatal(err)
	}
	free, err := RunPhased(w, s, configs, DVFSTransition{})
	if err != nil {
		t.Fatal(err)
	}
	transitions := float64(len(w.Phases) - 1) // every boundary flips island 0
	wantExtraSec := transitions * tr.SettleSec
	if math.Abs((withCost.Report.ExecSeconds-free.Report.ExecSeconds)-wantExtraSec) > 1e-9 {
		t.Errorf("settle time delta = %v, want %v",
			withCost.Report.ExecSeconds-free.Report.ExecSeconds, wantExtraSec)
	}
	wantExtraJ := transitions * tr.EnergyJ
	deltaJ := withCost.Report.CoreDynamicJ - free.Report.CoreDynamicJ
	if math.Abs(deltaJ-wantExtraJ) > 1e-6 {
		t.Errorf("transition energy delta = %v, want %v", deltaJ, wantExtraJ)
	}
}

func TestRunPhasedRejectsIslandMigration(t *testing.T) {
	w := testWorkload()
	s := nvfi(t)
	configs := make([]platform.VFIConfig, len(w.Phases))
	for i := range configs {
		configs[i] = s.VFI.Clone()
	}
	// illegal: move thread 0 to a different island mid-run
	configs[1].Assign = append([]int(nil), configs[1].Assign...)
	configs[1].Points = append(configs[1].Points, platform.OperatingPoint{VoltageV: 0.8, FreqGHz: 2.0})
	configs[1].Assign[0] = 1
	if _, err := RunPhased(w, s, configs, DVFSTransition{}); err == nil {
		t.Error("island migration accepted")
	}
	// wrong config count
	if _, err := RunPhased(w, s, configs[:2], DVFSTransition{}); err == nil {
		t.Error("short config list accepted")
	}
	if _, err := RunPhased(w, s, append(configs, s.VFI), DVFSTransition{}); err == nil {
		t.Error("long config list accepted")
	}
	// a 16-thread workload on the 64-core system is an error, not a panic
	small := &Workload{Name: "small", Threads: 16, Phases: []Phase{{Kind: Reduce, WorkCycles: make([]float64, 16)}}}
	if _, err := RunPhased(small, s, configs[:1], DVFSTransition{}); err == nil {
		t.Error("thread-count mismatch accepted")
	}
}

func TestPhaseConfigsModes(t *testing.T) {
	w := testWorkload()
	s := nvfi(t)
	base, err := Run(w, s)
	if err != nil {
		t.Fatal(err)
	}
	// 4 islands of 16 threads
	assign := make([]int, 64)
	for i := range assign {
		assign[i] = i / 16
	}
	static := platform.VFIConfig{
		Assign: assign,
		Points: make([]platform.OperatingPoint, 4),
	}
	for j := range static.Points {
		static.Points[j] = platform.OperatingPoint{VoltageV: 1.0, FreqGHz: 2.5}
	}
	table := platform.DefaultDVFSTable()
	mean := PhaseConfigs(base, static, table, 0.35, PhaseUtilMean)
	maxc := PhaseConfigs(base, static, table, 0.35, PhaseUtilMaxCore)
	if len(mean) != len(w.Phases) || len(maxc) != len(w.Phases) {
		t.Fatal("config count mismatch")
	}
	// libinit: only the master (thread 0, island 0) works. Mean mode
	// throttles island 0; max-core mode must keep it faster.
	libMean := mean[0].Points[0].FreqGHz
	libMax := maxc[0].Points[0].FreqGHz
	if libMax < libMean {
		t.Errorf("max-core gave master island %v GHz, below mean mode's %v", libMax, libMean)
	}
	// idle islands during libinit drop to the lowest rail in both modes
	if mean[0].Points[3].FreqGHz != 1.5 || maxc[0].Points[3].FreqGHz != 1.5 {
		t.Errorf("idle island not throttled: mean %v, max %v",
			mean[0].Points[3].FreqGHz, maxc[0].Points[3].FreqGHz)
	}
	if PhaseUtilMean.String() != "mean" || PhaseUtilMaxCore.String() != "max-core" {
		t.Error("mode labels wrong")
	}
}
