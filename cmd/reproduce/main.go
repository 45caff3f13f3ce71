// Command reproduce regenerates the tables and figures of "Energy Efficient
// MapReduce with VFI-enabled Multicore Platforms" (DAC 2015) on the
// simulated platform. With no flags it regenerates everything.
//
// Every figure, table and study is declared once, in expt.Sections: its
// flag, the pipelines it reads, whether a flagless run prints it, and one
// Run that calls its driver once and returns both the printed text and
// the snapshot section. expt.RunSections runs every printed section, and
// the pipelines it reads, at once on the -j wide pool and prints them in
// order. The snapshot reuses what the printed sections computed instead
// of running them again. The governor section (expt.GovernorSection,
// under -policy) and the sweep section (declared here, since
// internal/sweep imports expt) are opt-in and print before the closing
// summary.
//
// Usage:
//
//	reproduce [-j N] [-cache dir] [-table1] [-table2] [-fig2] [-fig4]
//	          [-fig5] [-fig6] [-fig7] [-fig8] [-kintra] [-stealing]
//	          [-summary] [-policy static|util|cap] [-cap W]
//	          [-sweep spec.json] [-sweep-journal j.ndjson] [-sweep-atlas a.json]
//	          [-snapshot out.json] [-baseline ref.json] [-check]
//	          [-report out.html] [-timeline dir]
//	          [-trace file.json] [-manifest file.json] [-v] [-debug-addr addr]
//
// -j bounds the number of concurrent simulations (default GOMAXPROCS);
// output is byte-identical whatever the value. -cache points at the design
// cache directory ("auto" = the user cache dir, "" = disabled).
//
// -policy enables the closed-loop DVFS governor section, which compares
// the static paper plan against the utilization governor and the governor
// under a chip-level core-power cap (set with -cap, watts, in [20, 500])
// across all six benchmarks. The section is opt-in: without -policy,
// stdout is byte-identical to earlier releases.
//
// -sweep runs a parametric scenario sweep from the given spec file (see
// internal/sweep and the wivfisweep command) and prints its atlas as an
// opt-in section; -sweep-journal makes it resumable and -sweep-atlas
// writes the atlas JSON document. Like -policy, the section never runs as
// part of the flagless default, so a flagless run's stdout stays
// byte-identical. Sweep scenarios share -j, -cache and the scenario
// keyspace with the figure suite, so the default-platform scenarios reuse
// the suite's cached designs.
//
// The fidelity flags drive the results-observability layer: -snapshot
// serializes every figure and table row into one schema-versioned JSON
// document, -baseline diffs that snapshot against a previously saved one,
// -check exits non-zero when the paper scoreboard fails or the diff finds a
// regression (naming the offending metrics on stderr), and -report writes a
// self-contained HTML (or markdown, by extension) run report combining the
// scoreboard, the diff, the figures and the run manifest. Any of them
// collects the complete snapshot regardless of which figure flags are set:
// sections that did not print run for the snapshot alone, and the
// governor section is held at the default cap (a -policy run with another
// -cap runs the study a second time for it).
//
// -timeline writes the time-resolved series (per-worker phase tracks,
// per-island utilization and windowed energy, the DES link heatmap and
// packet-latency histogram) as timeline.json plus CSVs into the given
// directory; -report embeds the same series as a rendered Timelines
// section. The artifacts are indexed by simulated time and deterministic
// record counts, so they are byte-identical across -j levels and runs.
//
// Telemetry never touches stdout: -trace writes a Chrome trace_event JSON
// file, -manifest a machine-readable run summary, -v progress lines on
// stderr, and -debug-addr serves net/http/pprof and expvar. The figure
// output is byte-identical with or without any of them, fidelity and
// timeline flags included.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"wivfi/internal/expt"
	"wivfi/internal/fidelity"
	"wivfi/internal/governor"
	"wivfi/internal/obs"
	"wivfi/internal/sweep"
	"wivfi/internal/timeline"
)

func main() {
	var (
		jobs     = flag.Int("j", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		cache    = flag.String("cache", "auto", `design cache dir ("auto" = user cache dir, "" = disabled)`)
		policy   = flag.String("policy", "", "extension: closed-loop DVFS governor section (static, util or cap; the section compares all three)")
		capWatts = flag.Float64("cap", expt.DefaultGovernorCapW, "chip core-power cap in watts for the governor section's cap column")

		sweepSpec    = flag.String("sweep", "", "parametric scenario sweep section from this spec JSON file (see wivfisweep)")
		sweepJournal = flag.String("sweep-journal", "", "resumable NDJSON journal for the -sweep section")
		sweepAtlas   = flag.String("sweep-atlas", "", "write the -sweep section's atlas JSON document here")

		snapshotPath = flag.String("snapshot", "", "write the full metrics snapshot (JSON)")
		baselinePath = flag.String("baseline", "", "diff the snapshot against this baseline snapshot")
		check        = flag.Bool("check", false, "exit non-zero on scoreboard failures or baseline regressions")
		reportPath   = flag.String("report", "", "write a run report (.html, or .md by extension)")
	)
	picked := make(map[string]*bool, len(expt.Sections))
	for _, sec := range expt.Sections {
		picked[sec.ID] = flag.Bool(sec.ID, false, sec.Usage)
	}
	cli := obs.NewCLI(flag.CommandLine, true)
	flag.Parse()
	wantFidelity := *snapshotPath != "" || *baselinePath != "" || *check || *reportPath != ""
	if *reportPath != "" {
		// the report embeds the run manifest and the timelines section, so
		// both need collecting even when no -trace/-manifest/-timeline was
		// asked for
		cli.Force()
	}

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
		os.Exit(1)
	}
	if *policy != "" {
		if _, err := governor.ParsePolicy(*policy); err != nil {
			fail(err)
		}
	}
	if err := expt.CheckGovernorCap(*capWatts); err != nil {
		fail(err)
	}
	if err := cli.Start("reproduce"); err != nil {
		fail(err)
	}

	if *jobs <= 0 {
		*jobs = runtime.GOMAXPROCS(0)
	}
	cacheDir := *cache
	if cacheDir == "auto" {
		cacheDir = expt.DefaultCacheDir()
	}
	cfg := expt.DefaultConfig()
	suite := expt.NewSuite(cfg,
		expt.WithParallelism(*jobs), expt.WithCacheDir(cacheDir))
	obs.Logf("reproduce: -j %d, cache %q, config %s", *jobs, cacheDir, expt.ConfigHash(cfg))

	// The sweep section is the one section declared here rather than in
	// expt.Sections, because internal/sweep imports expt. It writes its
	// optional atlas JSON to a file, never stdout.
	sweepSection := expt.Section{ID: "sweep", OptIn: true, Run: func(*expt.Suite) (string, fidelity.Section, error) {
		spec, err := sweep.LoadSpec(*sweepSpec)
		if err != nil {
			return "", fidelity.Section{}, err
		}
		res, err := sweep.Run(spec, sweep.Options{
			JournalPath: *sweepJournal,
			Parallelism: *jobs,
			CacheDir:    cacheDir,
			OnProgress: func(done, total int) {
				obs.Logf("reproduce: sweep %s: %d/%d scenarios", spec.Name, done, total)
			},
		})
		if err != nil {
			return "", fidelity.Section{}, err
		}
		if *sweepAtlas != "" {
			blob, err := json.MarshalIndent(res.Atlas, "", "  ")
			if err != nil {
				return "", fidelity.Section{}, err
			}
			if err := os.WriteFile(*sweepAtlas, append(blob, '\n'), 0o644); err != nil {
				return "", fidelity.Section{}, err
			}
		}
		return res.Atlas.Format(), fidelity.Section{}, nil
	}}
	sections := expt.WithOptIn(expt.GovernorSection(*capWatts), sweepSection)

	// A flagless run prints every section that is not opt-in; -policy adds
	// the governor section to whatever else prints.
	on := map[string]bool{"sweep": *sweepSpec != ""}
	all := !on["sweep"]
	for id, p := range picked {
		on[id] = *p
		all = all && !*p
	}
	on["governor"] = *policy != ""
	for _, sec := range sections {
		on[sec.ID] = on[sec.ID] || all && !sec.OptIn
	}

	// Every printed section runs at once on the suite pool, its pipelines
	// with it, and prints in order; the snapshot below reuses the rows it
	// computed. The governor section's rows are reused only at the default
	// cap, the point the snapshot pins.
	var printed []expt.Section
	for _, sec := range sections {
		if on[sec.ID] {
			printed = append(printed, sec)
		}
	}
	var computed []fidelity.Section
	err := suite.RunSections(printed, func(sec expt.Section, out string, fsec fidelity.Section) {
		fmt.Print(out)
		if !sec.NoBlank {
			fmt.Println()
		}
		if sec.ID != "governor" || *capWatts == expt.DefaultGovernorCapW {
			computed = append(computed, fsec)
		}
	})
	if err != nil {
		fail(err)
	}

	// Timelines, like fidelity, run after every section has printed: the
	// series are derived post hoc from the warm pipelines and written only
	// to files and stderr, so stdout above is byte-identical with or
	// without them. Exporting the set here fixes it before fidelity's
	// re-reads, for the report and the -timeline directory alike, and the
	// directory is written now so a failing fidelity section leaves it.
	if timeline.Active() != nil {
		sp := obs.StartSpan("timelines", "collect")
		err := suite.CollectTimelines(timeline.Active())
		sp.End()
		if err != nil {
			fail(err)
		}
		if err := cli.WriteTimelines(); err != nil {
			fail(err)
		}
	}

	// Fidelity runs after every section has printed: it reuses the printed
	// sections' rows, runs the sections that did not print and writes only
	// to files and stderr, so stdout above is byte-identical with or
	// without it.
	var fid *obs.FidelitySummary
	var gate []string // what -check will report and exit non-zero on
	customize := func(m *obs.Manifest) {
		m.Jobs = *jobs
		m.ConfigHash = expt.ConfigHash(cfg)
		m.CacheDir = cacheDir
		cs := suite.CacheStats()
		m.Cache = &obs.CacheSummary{Hits: cs.Hits, Misses: cs.Misses, CorruptEvicted: cs.CorruptEvicted}
		m.Fidelity = fid
	}
	if wantFidelity {
		snap, err := expt.CollectSnapshot(suite, computed...)
		if err != nil {
			fail(err)
		}
		results := fidelity.Evaluate(snap, expt.PaperChecks())
		tally := fidelity.Count(results)
		fid = &obs.FidelitySummary{
			SnapshotPath: *snapshotPath,
			BaselinePath: *baselinePath,
			ReportPath:   *reportPath,
			Pass:         tally.Pass, Warn: tally.Warn, Fail: tally.Fail,
		}
		for _, r := range fidelity.Failures(results) {
			gate = append(gate, fmt.Sprintf("scoreboard %s at %s: %s", r.ID, r.Addr(), r.Note))
		}

		var diff *fidelity.DiffReport
		if *baselinePath != "" {
			base, err := fidelity.LoadFile(*baselinePath)
			if err != nil {
				fail(err)
			}
			diff = fidelity.Diff(snap, base, fidelity.DiffOptions{})
			regs := diff.Regressions()
			fid.Regressions = len(regs)
			fid.ConfigMismatch = diff.ConfigMismatch
			if diff.ConfigMismatch {
				gate = append(gate, fmt.Sprintf("baseline config hash %s does not match current %s",
					diff.BaselineConfigHash, diff.CurrentConfigHash))
			}
			for _, f := range regs {
				gate = append(gate, "baseline "+f.String())
			}
			obs.Logf("reproduce: baseline diff: %d metric(s) compared, %d regression(s)", diff.Compared, len(regs))
		}

		if *snapshotPath != "" {
			if err := fidelity.WriteFile(*snapshotPath, snap); err != nil {
				fail(err)
			}
			obs.Logf("reproduce: snapshot written to %s", *snapshotPath)
		}
		if *reportPath != "" {
			data := fidelity.ReportData{
				Title:        "wivfi reproduction report",
				Snapshot:     snap,
				Results:      results,
				Diff:         diff,
				BaselinePath: *baselinePath,
				Manifest:     cli.BuildManifest(customize),
				Timelines:    cli.Timelines(),
			}
			if err := fidelity.WriteReport(*reportPath, data); err != nil {
				fail(err)
			}
			obs.Logf("reproduce: report written to %s", *reportPath)
		}
		fmt.Fprintf(os.Stderr, "reproduce: scoreboard %d pass, %d warn, %d fail\n",
			tally.Pass, tally.Warn, tally.Fail)
	}

	cs := suite.CacheStats()
	obs.Logf("reproduce: design cache: %d hit(s), %d miss(es), %d corrupt evicted",
		cs.Hits, cs.Misses, cs.CorruptEvicted)
	if err := cli.Finish(customize); err != nil {
		fail(err)
	}
	if len(gate) > 0 {
		for _, g := range gate {
			fmt.Fprintf(os.Stderr, "reproduce: %s\n", g)
		}
		if *check {
			fmt.Fprintf(os.Stderr, "reproduce: -check failed: %d offending metric(s)\n", len(gate))
			os.Exit(1)
		}
	}
}
