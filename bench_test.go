// Package wivfi_test benchmarks every reproduced table and figure of the
// paper plus the ablations DESIGN.md calls out. Each benchmark regenerates
// its experiment end to end (workload, baseline, parameter sweep, rows), so
// -benchtime=1x gives one full regeneration; see bench_output.txt for a
// recorded run.
package wivfi_test

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"wivfi/internal/apps"
	"wivfi/internal/energy"
	"wivfi/internal/expt"
	"wivfi/internal/noc"
	"wivfi/internal/platform"
	"wivfi/internal/qp"
	"wivfi/internal/sched"
	"wivfi/internal/sim"
	"wivfi/internal/topo"
	"wivfi/internal/vfi"
)

// sharedSuite caches the six pipelines for benchmarks that only need the
// experiment driver (re-running the full pipeline per iteration would bench
// the cache, not the experiment — the pipeline itself is benchmarked by
// BenchmarkPipelineBuild).
var (
	suiteOnce sync.Once
	suite     *expt.Suite
)

func benchSuite(b *testing.B) *expt.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suite = expt.NewSuite(expt.DefaultConfig())
		// warm every pipeline so per-figure benchmarks measure the driver
		if err := suite.Prewarm(expt.AppOrder...); err != nil {
			b.Fatal(err)
		}
	})
	return suite
}

// BenchmarkPipelineBuild measures the full per-application flow: profiling
// run, VFI design, placement, and simulation of all five system variants.
func BenchmarkPipelineBuild(b *testing.B) {
	cfg := expt.DefaultConfig()
	app, err := apps.ByName("wc")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expt.BuildPipeline(cfg, app); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := expt.Table1()
		if len(rows) != 6 {
			b.Fatal("bad table 1")
		}
	}
}

func BenchmarkTable2VFAssignment(b *testing.B) {
	s := benchSuite(b)
	// benchmark the design flow itself on the cached profiles
	pl, err := s.Pipeline("pca")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vfi.Design(pl.Profile, s.Config.VFI); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2Utilization(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig2()
		if err != nil || len(rows) != 4 {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4Reassignment(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5Bottleneck(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6Placement(b *testing.B) {
	// benchmark one full placement comparison (both strategies) per
	// iteration — the annealing is the cost
	s := benchSuite(b)
	pl, err := s.Pipeline("wc")
	if err != nil {
		b.Fatal(err)
	}
	cfg := s.Config.Build
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, st := range []sim.Strategy{sim.MinHop, sim.MaxWireless} {
			sys, err := sim.VFIWiNoC(cfg, pl.Plan.VFI2, pl.Profile.Traffic, st)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.Run(pl.Workload, sys); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig7ExecTime(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig7()
		if err != nil || len(rows) != 12 {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8FullSystemEDP(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig8()
		if err != nil || len(rows) != 6 {
			b.Fatal(err)
		}
	}
}

func BenchmarkKIntraKInterSweep(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.KIntraSweep(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStealingCaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.RunStealingStudy(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- ablations ----

// randomQP builds a seeded n-core, m-cluster instance: uniform
// utilizations, traffic on each off-diagonal pair with the given density
// (1 = every pair, the density of the paper's profiled matrices) and
// equal-split quantile target means.
func randomQP(seed int64, n, m int, density float64) *qp.Problem {
	rng := rand.New(rand.NewSource(seed))
	util := make([]float64, n)
	for i := range util {
		util[i] = rng.Float64()
	}
	comm := make([][]float64, n)
	for i := range comm {
		comm[i] = make([]float64, n)
		for j := range comm[i] {
			if i != j && (density >= 1 || rng.Float64() < density) {
				comm[i][j] = rng.Float64()
			}
		}
	}
	s := append([]float64(nil), util...)
	sort.Float64s(s)
	targets := make([]float64, m)
	for g := 0; g < m; g++ {
		var sum float64
		for k := 0; k < n/m; k++ {
			sum += s[g*(n/m)+k]
		}
		targets[g] = sum / float64(n/m)
	}
	return &qp.Problem{N: n, M: m, Comm: comm, Util: util, TargetMeans: targets, Wc: 1, Wu: 1}
}

// BenchmarkQPSolvers compares the exact branch-and-bound against the
// simulated-annealing solver on a 12-core instance (the largest size B&B
// handles comfortably).
func BenchmarkQPSolvers(b *testing.B) {
	prob := randomQP(1, 12, 3, 1)
	b.Run("branch-and-bound", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := qp.BranchAndBound(prob, 50_000_000); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("anneal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := qp.Anneal(prob, qp.DefaultAnnealOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNoCAnalyticVsDES compares the closed-form network model against
// the cycle-accurate wormhole simulator on identical uniform traffic.
func BenchmarkNoCAnalyticVsDES(b *testing.B) {
	chip := platform.DefaultChip()
	mesh := topo.Mesh(chip)
	rt, err := noc.BuildRoutes(mesh, noc.DefaultLinkCosts(), noc.XY)
	if err != nil {
		b.Fatal(err)
	}
	nm := energy.DefaultNetworkModel()
	n := chip.NumCores()
	traffic := make([][]float64, n)
	for i := range traffic {
		traffic[i] = make([]float64, n)
		for j := range traffic[i] {
			if i != j {
				traffic[i][j] = 0.04 / float64(n-1)
			}
		}
	}
	b.Run("analytic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := noc.Analytic(rt, traffic, nm, noc.DefaultAnalyticConfig()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("des", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		var pkts []noc.Packet
		for i := 0; i < 1000; i++ {
			s, d := rng.Intn(n), rng.Intn(n)
			pkts = append(pkts, noc.Packet{ID: i, Src: s, Dst: d, Flits: 4, Inject: int64(i * 3)})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := noc.RunDES(rt, pkts, nm, noc.DefaultDESConfig()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRealApps runs the actual MapReduce implementations at small
// scale.
func BenchmarkRealApps(b *testing.B) {
	for _, name := range apps.Names() {
		app, err := apps.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := app.RunReal(0.01, 8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStealingPolicies is the scheduler ablation: the three stealing
// policies on the Section 4.3 workload.
func BenchmarkStealingPolicies(b *testing.B) {
	tasks := sched.UniformTasks(100, 0.495e9, 0.075, 0.072)
	freqs := make([]float64, 64)
	for c := range freqs {
		if c < 32 {
			freqs[c] = 2.5
		} else {
			freqs[c] = 2.0
		}
	}
	assign := sched.DealRoundRobin(len(tasks), 64)
	for _, pol := range []struct {
		name   string
		policy sched.Policy
	}{
		{"none", sched.NoStealing},
		{"default", sched.DefaultStealing},
		{"vfi-cap", sched.CapVFI},
	} {
		b.Run(pol.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sched.RunPhase(tasks, assign, freqs, pol.policy, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPhaseAdaptiveDVFS regenerates the phase-adaptive DVFS extension
// study (static VFI 2 vs per-phase controllers).
func BenchmarkPhaseAdaptiveDVFS(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := s.PhaseAdaptiveStudy()
		if err != nil || len(rows) != 6 {
			b.Fatal(err)
		}
	}
}

// BenchmarkWIFailureStudy regenerates the wireless-fault robustness study.
func BenchmarkWIFailureStudy(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := s.WIFailureStudy("wc", []int{0, 6, 12})
		if err != nil || len(rows) != 3 {
			b.Fatal(err)
		}
	}
}

// BenchmarkKLRefinement is the partitioning-quality ablation: plain anneal
// vs anneal + Kernighan-Lin refinement on a 64-core instance.
func BenchmarkKLRefinement(b *testing.B) {
	prob := randomQP(5, 64, 4, 0.3)
	b.Run("anneal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := qp.Anneal(prob, qp.DefaultAnnealOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("anneal+kl", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := qp.SolveRefined(prob, qp.DefaultAnnealOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAnnealQP is one default-options anneal of a dense 144-core,
// 4-cluster instance: the size of a 12x12 sweep scenario's VFI clustering.
// CI gates it with a loose wall-clock budget (testdata/bench-gates.json).
func BenchmarkAnnealQP(b *testing.B) {
	prob := randomQP(7, 144, 4, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := qp.Anneal(prob, qp.DefaultAnnealOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
