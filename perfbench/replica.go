package main

// The traced run replays ops through the layers' public functions so that
// each layer call gets its own span. Where one program function is one
// layer call (sim.NVFIMesh, sim.VFIWiNoC) the program's function runs
// inside the span. Only where a program function spans two layers
// (sim.VFIMesh and sim.NVFIMeshMapped: thread mapping, then route
// building), and for expt's design flow and sweep's fidelity probe, do the
// functions below compose the layer calls as the program does; every
// replayed op checks its output against the untraced op's, so a
// divergence between such a composition and the program shows up as a
// failed op.

import (
	"fmt"
	"math/rand"

	"wivfi/internal/apps"
	"wivfi/internal/expt"
	"wivfi/internal/governor"
	"wivfi/internal/noc"
	"wivfi/internal/obs"
	"wivfi/internal/place"
	"wivfi/internal/platform"
	"wivfi/internal/sched"
	"wivfi/internal/sim"
	"wivfi/internal/topo"
	"wivfi/internal/vfi"
)

// meshRoutes builds XY routes on the plain mesh (noc.build_routes).
func meshRoutes(t *tracer, cfg sim.BuildConfig) (*noc.RouteTable, error) {
	var rt *noc.RouteTable
	err := t.call("noc.build_routes", func() (err error) {
		rt, err = noc.BuildRoutes(topo.Mesh(cfg.Chip), cfg.LinkCosts, noc.XY)
		return err
	})
	t.tag("noc.build_routes", fmt.Sprintf("%dx%d", cfg.Chip.Rows, cfg.Chip.Cols))
	return rt, err
}

func newSystem(name string, cfg sim.BuildConfig, v platform.VFIConfig, m place.Mapping, rt *noc.RouteTable, pol sched.Policy) *sim.System {
	return &sim.System{
		Name: name, Chip: cfg.Chip, VFI: v, Mapping: m, Routes: rt,
		NetModel: cfg.NetModel, CoreModel: cfg.CoreModel, Analytic: cfg.Analytic,
		NetClockGHz: cfg.NetClockGHz, Policy: pol, MemRoundTripFactor: cfg.MemRoundTripFactor,
	}
}

// mapThreads is place.MapThreadsMinDistance (place.map_threads).
func mapThreads(t *tracer, cfg sim.BuildConfig, assign []int, traffic [][]float64) (place.Mapping, error) {
	var m place.Mapping
	err := t.call("place.map_threads", func() (err error) {
		m, err = place.MapThreadsMinDistance(cfg.Chip, assign, traffic, cfg.Place.Seed, cfg.Place.MappingSweeps)
		return err
	})
	return m, err
}

// nvfiMesh is sim.NVFIMesh, the profiling platform: XY routes on the
// plain mesh and the identity mapping (noc.build_routes).
func nvfiMesh(t *tracer, cfg sim.BuildConfig) (*sim.System, error) {
	var sys *sim.System
	err := t.call("noc.build_routes", func() (err error) {
		sys, err = sim.NVFIMesh(cfg)
		return err
	})
	t.tag("noc.build_routes", fmt.Sprintf("%dx%d", cfg.Chip.Rows, cfg.Chip.Cols))
	return sys, err
}

// nvfiMeshMapped mirrors sim.NVFIMeshMapped: the reporting baseline.
func nvfiMeshMapped(t *tracer, cfg sim.BuildConfig, traffic [][]float64) (*sim.System, error) {
	n := cfg.Chip.NumCores()
	if n%4 != 0 {
		return nil, fmt.Errorf("%d cores not divisible into 4 thread groups", n)
	}
	assign := make([]int, n)
	for th := range assign {
		assign[th] = th / (n / 4)
	}
	m, err := mapThreads(t, cfg, assign, traffic)
	if err != nil {
		return nil, err
	}
	rt, err := meshRoutes(t, cfg)
	if err != nil {
		return nil, err
	}
	return newSystem("nvfi-mesh", cfg, platform.Uniform(n, platform.MaxPoint(platform.DefaultDVFSTable())),
		m, rt, sched.DefaultStealing), nil
}

// vfiMesh mirrors sim.VFIMesh.
func vfiMesh(t *tracer, cfg sim.BuildConfig, v platform.VFIConfig, traffic [][]float64) (*sim.System, error) {
	if err := v.Validate(); err != nil {
		return nil, err
	}
	m, err := mapThreads(t, cfg, v.Assign, traffic)
	if err != nil {
		return nil, err
	}
	rt, err := meshRoutes(t, cfg)
	if err != nil {
		return nil, err
	}
	return newSystem("vfi-mesh", cfg, v, m, rt, sched.CapVFI), nil
}

// vfiWiNoC is sim.VFIWiNoC, timed as the placement layer the strategy
// names (place.min_hop or place.max_wireless): thread mapping,
// WI-placement annealing and up*/down* routes.
func vfiWiNoC(t *tracer, cfg sim.BuildConfig, v platform.VFIConfig, traffic [][]float64, s sim.Strategy) (*sim.System, error) {
	layer := "place.min_hop"
	if s == sim.MaxWireless {
		layer = "place.max_wireless"
	}
	var sys *sim.System
	err := t.call(layer, func() (err error) {
		sys, err = sim.VFIWiNoC(cfg, v, traffic, s)
		return err
	})
	return sys, err
}

// runSim is sim.Run (sim.run).
func runSim(t *tracer, w *sim.Workload, sys *sim.System) (*sim.RunResult, error) {
	var r *sim.RunResult
	err := t.call("sim.run", func() (err error) {
		r, err = sim.Run(w, sys)
		return err
	})
	return r, err
}

// design mirrors expt's cold design flow: the profiling run on the plain
// mesh, then vfi.Design. vfi.Cluster, the QP clustering inside Design, is
// timed by one extra side call that the op's latency excludes.
func design(t *tracer, cfg expt.Config, w *sim.Workload) (platform.Profile, vfi.Plan, error) {
	var prof platform.Profile
	var plan vfi.Plan
	err := t.call("expt.design_miss", func() error {
		probe, err := nvfiMesh(t, cfg.Build)
		if err != nil {
			return err
		}
		res, err := runSim(t, w, probe)
		if err != nil {
			return err
		}
		prof = res.Profile()
		return t.call("vfi.design", func() (err error) {
			plan, err = vfi.Design(prof, cfg.VFI)
			return err
		})
	})
	if err != nil {
		return prof, plan, err
	}
	err = t.side("qp.cluster", func() error {
		_, _, err := vfi.Cluster(prof, cfg.VFI)
		return err
	})
	return prof, plan, err
}

// designHit is expt.BuildDesign against a warm design cache.
func designHit(t *tracer, cfg expt.Config, app *apps.App, cacheDir string) (*sim.Workload, platform.Profile, vfi.Plan, error) {
	var (
		w    *sim.Workload
		prof platform.Profile
		plan vfi.Plan
		hit  bool
	)
	err := t.call("expt.design_hit", func() (err error) {
		w, prof, plan, hit, err = expt.BuildDesign(cfg, app, nil, cacheDir)
		return err
	})
	if err == nil && !hit {
		err = fmt.Errorf("design cache miss for %s", app.Name)
	}
	return w, prof, plan, err
}

// pipelineRuns replays the five system simulations of an expt pipeline.
func pipelineRuns(t *tracer, cfg sim.BuildConfig, w *sim.Workload, prof platform.Profile, plan vfi.Plan) ([]*sim.RunResult, error) {
	builds := []func() (*sim.System, error){
		func() (*sim.System, error) { return nvfiMeshMapped(t, cfg, prof.Traffic) },
		func() (*sim.System, error) { return vfiMesh(t, cfg, plan.VFI1, prof.Traffic) },
		func() (*sim.System, error) { return vfiMesh(t, cfg, plan.VFI2, prof.Traffic) },
		func() (*sim.System, error) { return vfiWiNoC(t, cfg, plan.VFI2, prof.Traffic, sim.MinHop) },
		func() (*sim.System, error) { return vfiWiNoC(t, cfg, plan.VFI2, prof.Traffic, sim.MaxWireless) },
	}
	out := make([]*sim.RunResult, len(builds))
	for i, b := range builds {
		sys, err := b()
		if err != nil {
			return nil, err
		}
		if out[i], err = runSim(t, w, sys); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// samePipeline checks replayed runs against a pipeline the program built.
func samePipeline(runs []*sim.RunResult, pl *expt.Pipeline) error {
	want := []*sim.RunResult{pl.Baseline, pl.VFI1Mesh, pl.VFI2Mesh, pl.WiNoC[sim.MinHop], pl.WiNoC[sim.MaxWireless]}
	for i, r := range runs {
		if r.Report.ExecSeconds != want[i].Report.ExecSeconds || r.Report.TotalJ() != want[i].Report.TotalJ() {
			return fmt.Errorf("%s: replayed %s differs from the program's", pl.App.Name, want[i].System)
		}
	}
	return nil
}

// governed is expt.GovernedSystem (sim.run_governed).
func governed(t *tracer, cfg expt.Config, w *sim.Workload, plan vfi.Plan, sys *sim.System, pol governor.Policy, capW float64) (*sim.RunResult, governor.Summary, error) {
	var (
		r   *sim.RunResult
		sum governor.Summary
	)
	err := t.call("sim.run_governed", func() (err error) {
		r, sum, err = expt.GovernedSystem(cfg, w, plan, sys, pol, capW)
		return err
	})
	t.add("sim.run_governed", "decisions", float64(sum.Decisions))
	return r, sum, err
}

// Fidelity probe shape; the same constants as the sweep package's probe.
const (
	probePackets = 1500
	probeFlits   = 4
	probeHorizon = 6000
	probeSeed    = 1
)

// fidelityProbe mirrors the sweep's DES-vs-analytic probe (noc.analytic,
// noc.des) and returns the two average latencies.
func fidelityProbe(t *tracer, cfg expt.Config, traffic [][]float64, sys *sim.System) (analytic, des float64, err error) {
	tiles := place.MapTraffic(traffic, sys.Mapping)
	total := 0.0
	for _, row := range tiles {
		for _, f := range row {
			total += f
		}
	}
	if total <= 0 {
		return 0, 0, nil
	}
	rate := float64(probePackets*probeFlits) / float64(probeHorizon)
	scaled := make([][]float64, len(tiles))
	for i, row := range tiles {
		scaled[i] = make([]float64, len(row))
		for j, f := range row {
			scaled[i][j] = f * rate / total
		}
	}
	var an noc.AnalyticResult
	if err := t.call("noc.analytic", func() (err error) {
		an, err = noc.Analytic(sys.Routes, scaled, cfg.Build.NetModel, cfg.Build.Analytic)
		return err
	}); err != nil {
		return 0, 0, err
	}
	rng := rand.New(rand.NewSource(probeSeed))
	n := len(tiles)
	pick := func() (int, int) {
		r := rng.Float64() * total
		for i, row := range tiles {
			for j, f := range row {
				r -= f
				if r <= 0 {
					return i, j
				}
			}
		}
		return n - 1, n - 1
	}
	pkts := make([]noc.Packet, probePackets)
	for i := range pkts {
		s, d := pick()
		pkts[i] = noc.Packet{ID: i, Src: s, Dst: d, Flits: probeFlits, Inject: rng.Int63n(probeHorizon + 1)}
	}
	var res noc.DESResult
	hops0 := obs.CounterTotals()[noc.MetricDESFlitHops]
	err = t.call("noc.des", func() (err error) {
		res, err = noc.RunDES(sys.Routes, pkts, cfg.Build.NetModel, noc.DefaultDESConfig())
		return err
	})
	t.add("noc.des", "flit_hops", float64(obs.CounterTotals()[noc.MetricDESFlitHops]-hops0))
	return an.AvgLatencyCycles, res.AvgLatencyCycles, err
}
