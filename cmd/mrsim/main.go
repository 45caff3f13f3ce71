// Command mrsim runs one benchmark end-to-end on a chosen system
// configuration and prints its phase timeline, energy and EDP.
//
// Usage:
//
//	mrsim -app wc -system vfi-winoc [-strategy max-wireless] [-vfi1]
//	mrsim -app wc -policy cap [-cap 120] [-decision-log wc.ndjson]
//	mrsim -app kmeans -real -scale 0.05
//	mrsim -app wc -real -trace trace.json -manifest manifest.json
//
// -policy runs the benchmark's VFI 2 mesh under a closed-loop DVFS
// governor (static holds the paper plan, util re-decides island V/F from
// live utilization, cap adds a chip core-power cap set by -cap) and
// appends the governor's decision summary; -decision-log writes the full
// per-phase decision log as NDJSON. The log is a pure function of the
// configuration: byte-identical across -j levels and cache states.
//
// -j and -cache mirror the reproduce flags: -j bounds the concurrent
// simulations of the pipeline build, -cache points at the shared design
// cache ("auto" = the user cache dir, "" = disabled). -timeline writes
// time-resolved series to a directory: in simulator mode the benchmark's
// deterministic phase/energy/heatmap series, with -real the live
// MapReduce engine's per-worker phase tracks, steal-rate and queue-depth
// series. -trace, -manifest, -v and -debug-addr are the usual telemetry
// flags; none of them touches stdout.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"wivfi/internal/apps"
	"wivfi/internal/expt"
	"wivfi/internal/governor"
	"wivfi/internal/obs"
	"wivfi/internal/sim"
	"wivfi/internal/timeline"
)

func main() {
	var (
		appName  = flag.String("app", "wc", "benchmark: "+fmt.Sprint(apps.Names()))
		system   = flag.String("system", "vfi-winoc", "system: nvfi-mesh | vfi-mesh | vfi-winoc")
		strategy = flag.String("strategy", "best", "WiNoC placement: min-hop | max-wireless | best")
		useVFI1  = flag.Bool("vfi1", false, "use the VFI 1 configuration (before re-assignment)")
		real     = flag.Bool("real", false, "run the real MapReduce implementation instead of the simulator")
		scale    = flag.Float64("scale", 0.05, "input scale for -real (1.0 = paper-shaped datasets)")
		workers  = flag.Int("workers", 8, "worker goroutines for -real")
		jobs     = flag.Int("j", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		cache    = flag.String("cache", "auto", `design cache dir ("auto" = user cache dir, "" = disabled)`)
		policy   = flag.String("policy", "", "run the VFI 2 mesh under a closed-loop DVFS governor: static | util | cap")
		capWatts = flag.Float64("cap", expt.DefaultGovernorCapW, "chip core-power cap in watts for -policy cap")
		decLog   = flag.String("decision-log", "", "write the governor decision log (NDJSON) to this file")
	)
	cli := obs.NewCLI(flag.CommandLine, true)
	flag.Parse()
	// Every flag is checked before any work: a bad value must not build a
	// pipeline or write a design-cache entry on its way to failing.
	var pol governor.Policy
	if *policy != "" {
		var err error
		if pol, err = governor.ParsePolicy(*policy); err != nil {
			fatal(err)
		}
	}
	if err := expt.CheckGovernorCap(*capWatts); err != nil {
		fatal(err)
	}
	pick, err := runPicker(*system, *strategy, *useVFI1)
	if err != nil {
		fatal(err)
	}
	if err := cli.Start("mrsim"); err != nil {
		fatal(err)
	}
	if *jobs <= 0 {
		*jobs = runtime.GOMAXPROCS(0)
	}
	cacheDir := *cache
	if cacheDir == "auto" {
		cacheDir = expt.DefaultCacheDir()
	}
	cfg := expt.DefaultConfig()
	finish := func(suite *expt.Suite) {
		if err := cli.Finish(func(m *obs.Manifest) {
			m.Jobs = *jobs
			m.ConfigHash = expt.ConfigHash(cfg)
			if suite != nil {
				m.CacheDir = cacheDir
				cs := suite.CacheStats()
				m.Cache = &obs.CacheSummary{Hits: cs.Hits, Misses: cs.Misses, CorruptEvicted: cs.CorruptEvicted}
			}
		}); err != nil {
			fatal(err)
		}
	}

	app, err := apps.ByName(*appName)
	if err != nil {
		fatal(err)
	}
	if *real && *policy != "" {
		fatal(fmt.Errorf("-policy governs the simulator's VFI 2 mesh; it cannot be combined with -real"))
	}
	if *real {
		obs.Logf("mrsim: running real %s at scale %g with %d workers", app.Name, *scale, *workers)
		res, err := app.RunReal(*scale, *workers)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Summary)
		fmt.Printf("phases: split=%v map=%v reduce=%v merge=%v; %d tasks, %d steals\n",
			res.Stats.SplitTime, res.Stats.MapTime, res.Stats.ReduceTime, res.Stats.MergeTime,
			res.Stats.Tasks, res.Stats.Steals)
		finish(nil)
		return
	}

	suite := expt.NewSuite(cfg,
		expt.WithParallelism(*jobs), expt.WithCacheDir(cacheDir))
	pl, err := suite.Pipeline(app.Name)
	if err != nil {
		fatal(err)
	}
	if timeline.Active() != nil {
		if err := suite.CollectTimelines(timeline.Active(), app.Name); err != nil {
			fatal(err)
		}
	}
	printRun := func(run *sim.RunResult) {
		fmt.Printf("%s on %s\n", app.Name, run.System)
		fmt.Printf("  %-8s %-5s %10s %12s %12s %10s\n", "phase", "iter", "seconds", "net-lat(cyc)", "net-energy(J)", "steals")
		for _, ph := range run.Phases {
			fmt.Printf("  %-8v %-5d %10.4f %12.1f %12.4f %10d\n",
				ph.Kind, ph.Iteration, ph.Seconds, ph.NetLatencyCycles, ph.NetJ, ph.Steals)
		}
		r := run.Report
		fmt.Printf("total: %.4f s, %.2f J (core dyn %.2f + leak %.2f + net %.2f), EDP %.3f J.s\n",
			r.ExecSeconds, r.TotalJ(), r.CoreDynamicJ, r.CoreLeakageJ, r.NetworkJ, r.EDP())
		e, en, edp := run.Report.Relative(pl.Baseline.Report)
		fmt.Printf("vs NVFI mesh: exec %.3fx, energy %.3fx, EDP %.3fx\n", e, en, edp)
	}

	if *policy != "" {
		capW := 0.0
		if pol == governor.Cap {
			capW = *capWatts
		}
		log := governor.NewLog()
		run, sum, err := expt.GovernedMesh(cfg, pl, pol, capW, log, nil)
		if err != nil {
			fatal(err)
		}
		printRun(run)
		fmt.Printf("governor: policy %s, %d decisions, %d transitions, %d sheds, %d violations, max %.1f W measured / %.1f W worst case",
			sum.Policy, sum.Decisions, sum.Transitions, sum.Sheds, sum.CapViolations, sum.MaxPowerW, sum.WorstCasePowerW)
		if pol == governor.Cap {
			fmt.Printf(" (cap %.1f W)", sum.CapW)
		}
		fmt.Println()
		if *decLog != "" {
			blob, err := log.NDJSON()
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*decLog, blob, 0o644); err != nil {
				fatal(err)
			}
			obs.Logf("mrsim: decision log written to %s", *decLog)
		}
		finish(suite)
		return
	}

	printRun(pick(pl))
	finish(suite)
}

// runPicker returns the selector of the run that -system, -strategy and
// -vfi1 name, or an error for an unknown name.
func runPicker(system, strategy string, vfi1 bool) (func(*expt.Pipeline) *sim.RunResult, error) {
	switch system {
	case "nvfi-mesh":
		return func(pl *expt.Pipeline) *sim.RunResult { return pl.Baseline }, nil
	case "vfi-mesh":
		if vfi1 {
			return func(pl *expt.Pipeline) *sim.RunResult { return pl.VFI1Mesh }, nil
		}
		return func(pl *expt.Pipeline) *sim.RunResult { return pl.VFI2Mesh }, nil
	case "vfi-winoc":
		switch strategy {
		case "min-hop":
			return func(pl *expt.Pipeline) *sim.RunResult { return pl.WiNoC[sim.MinHop] }, nil
		case "max-wireless":
			return func(pl *expt.Pipeline) *sim.RunResult { return pl.WiNoC[sim.MaxWireless] }, nil
		case "best":
			return (*expt.Pipeline).BestWiNoC, nil
		}
		return nil, fmt.Errorf("unknown strategy %q", strategy)
	}
	return nil, fmt.Errorf("unknown system %q", system)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "mrsim: %v\n", err)
	os.Exit(1)
}
