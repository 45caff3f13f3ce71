// Command wivfisweep runs a parametric scenario sweep from a spec file
// and writes the aggregate atlas.
//
//	wivfisweep -spec sweep.json -journal sweep.ndjson -atlas atlas.json -j 8
//
// The spec document (see internal/sweep.Spec) names the axes — mesh
// sizes, VFI island counts and splits, benchmarks, frequency margins,
// governor policies — and the tool expands the cross product, drops
// infeasible grid points, and fans the rest over a bounded worker pool.
// Every finished scenario is appended to the -journal NDJSON file;
// rerunning with the same journal skips completed scenarios and, once
// all scenarios are in, produces a byte-identical atlas — the basis of
// the CI kill+resume check (use -max to stop a run partway through
// deterministically).
//
// The atlas text report goes to stdout; -atlas writes the JSON document.
// Scenario failures are recorded in the journal and counted, not fatal.
// -fail-on-outliers exits non-zero when any scenario's DES-vs-analytic
// latency deviation exceeds the spec's tolerance — the CI fidelity gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"wivfi/internal/expt"
	"wivfi/internal/obs"
	"wivfi/internal/sweep"
)

func main() {
	var (
		specPath  = flag.String("spec", "", "sweep spec JSON file (required)")
		journal   = flag.String("journal", "", "resumable NDJSON journal; existing records are skipped, new ones appended")
		atlasPath = flag.String("atlas", "", "write the aggregate atlas JSON document here")
		jobs      = flag.Int("j", 0, "concurrent scenarios (default: GOMAXPROCS)")
		cacheDir  = flag.String("cache", expt.DefaultCacheDir(), "design cache directory (empty disables caching)")
		maxScen   = flag.Int("max", 0, "stop after N fresh scenarios, in key order (deterministic interrupted-sweep stand-in; 0 = run all)")
		failOut   = flag.Bool("fail-on-outliers", false, "exit non-zero when any scenario exceeds the spec's analytic tolerance")
	)
	cli := obs.NewCLI(flag.CommandLine, false)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "wivfisweep: %v\n", err)
		os.Exit(1)
	}
	if *specPath == "" {
		fail(fmt.Errorf("-spec is required (a sweep spec JSON file)"))
	}
	if err := cli.Start("wivfisweep"); err != nil {
		fail(err)
	}
	spec, err := sweep.LoadSpec(*specPath)
	if err != nil {
		fail(err)
	}

	res, err := sweep.Run(spec, sweep.Options{
		JournalPath:  *journal,
		Parallelism:  *jobs,
		CacheDir:     *cacheDir,
		MaxScenarios: *maxScen,
		OnProgress: func(done, total int) {
			obs.Logf("sweep %s: %d/%d scenarios", spec.Name, done, total)
		},
	})
	if err != nil {
		fail(err)
	}

	fmt.Print(res.Atlas.Format())
	if *atlasPath != "" {
		blob, err := json.MarshalIndent(res.Atlas, "", "  ")
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*atlasPath, append(blob, '\n'), 0o644); err != nil {
			fail(err)
		}
	}

	fmt.Fprintf(os.Stderr, "wivfisweep: %d planned (%d infeasible grid points), %d resumed, %d completed (%d cache hits, %d errors), %d remaining, %d outliers\n",
		res.Planned, res.Infeasible, res.Resumed, res.Completed, res.CacheHits, res.Errors, res.Remaining, len(res.Atlas.Outliers))
	if err := cli.Finish(func(m *obs.Manifest) {
		m.Jobs = *jobs
		m.CacheDir = *cacheDir
	}); err != nil {
		fail(err)
	}
	if *failOut && len(res.Atlas.Outliers) > 0 {
		fail(fmt.Errorf("%d scenarios exceed the analytic tolerance %g", len(res.Atlas.Outliers), spec.AnalyticTolerance))
	}
}
