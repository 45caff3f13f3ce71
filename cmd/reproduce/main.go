// Command reproduce regenerates the tables and figures of "Energy Efficient
// MapReduce with VFI-enabled Multicore Platforms" (DAC 2015) on the
// simulated platform. With no flags it regenerates everything.
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
// under a chip-level core-power cap (set with -cap, watts) across all six
// benchmarks. The section is opt-in: without -policy, stdout is
// byte-identical to earlier releases.
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
// collects the complete snapshot regardless of which figure flags are set.
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
	"strings"

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
		table1   = flag.Bool("table1", false, "Table 1: benchmarks and datasets")
		table2   = flag.Bool("table2", false, "Table 2: V/F assignments")
		fig2     = flag.Bool("fig2", false, "Fig. 2: core utilization distributions")
		fig4     = flag.Bool("fig4", false, "Fig. 4: VFI 1 vs VFI 2")
		fig5     = flag.Bool("fig5", false, "Fig. 5: bottleneck utilization")
		fig6     = flag.Bool("fig6", false, "Fig. 6: placement strategies")
		fig7     = flag.Bool("fig7", false, "Fig. 7: execution-time breakdown")
		fig8     = flag.Bool("fig8", false, "Fig. 8: full-system EDP")
		kintra   = flag.Bool("kintra", false, "Section 7.2: (k_intra,k_inter) sweep")
		stealing = flag.Bool("stealing", false, "Section 4.3: task-stealing case study")
		summary  = flag.Bool("summary", false, "headline numbers (abstract)")
		phased   = flag.Bool("phased", false, "extension: phase-adaptive DVFS controllers")
		wifail   = flag.Bool("wifail", false, "extension: wireless-interface failure robustness")
		margins  = flag.Bool("margins", false, "sensitivity: V/F-selection margin sweep")
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
	cli := obs.NewCLI(flag.CommandLine, true)
	flag.Parse()
	wantFidelity := *snapshotPath != "" || *baselinePath != "" || *check || *reportPath != ""
	if *reportPath != "" {
		// the report embeds the run manifest and the timelines section, so
		// both need collecting even when no -trace/-manifest/-timeline was
		// asked for
		cli.Force()
	}
	all := !(*table1 || *table2 || *fig2 || *fig4 || *fig5 || *fig6 ||
		*fig7 || *fig8 || *kintra || *stealing || *summary || *phased || *wifail || *margins ||
		*sweepSpec != "")

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
		os.Exit(1)
	}
	if *policy != "" {
		if _, err := governor.ParsePolicy(*policy); err != nil {
			fail(err)
		}
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

	// Build every pipeline this invocation needs up front, -j wide; the
	// drivers below then render from warm pipelines in a fixed order.
	var prewarm []string
	switch {
	case all || wantFidelity || *table2 || *fig6 || *fig7 || *fig8 || *kintra || *phased || *summary || *policy != "":
		prewarm = expt.AppOrder
	default:
		seen := map[string]bool{}
		add := func(names ...string) {
			for _, n := range names {
				if !seen[n] {
					seen[n] = true
					prewarm = append(prewarm, n)
				}
			}
		}
		if *fig2 {
			add(expt.Fig2Apps...)
		}
		if *fig4 || *fig5 {
			add(expt.Fig4Apps...)
		}
		if *wifail {
			add("wc")
		}
		if *margins {
			add("kmeans")
		}
	}
	if len(prewarm) > 0 {
		obs.Logf("reproduce: prewarming %d pipeline(s): %s", len(prewarm), strings.Join(prewarm, " "))
		sp := obs.StartSpan("prewarm", strings.Join(prewarm, " "))
		err := suite.Prewarm(prewarm...)
		sp.End()
		if err != nil {
			fail(err)
		}
	}

	// Each section prints its formatted block followed (except -summary,
	// which historically omits it) by a blank separator line. Rendering
	// through this table keeps stdout byte-for-byte what the per-section
	// if-blocks used to produce, telemetry or not.
	sections := []struct {
		name    string
		enabled bool
		newline bool
		render  func() (string, error)
	}{
		{"table1", all || *table1, true, func() (string, error) {
			return expt.FormatTable1(expt.Table1()), nil
		}},
		{"table2", all || *table2, true, func() (string, error) {
			rows, err := suite.Table2()
			if err != nil {
				return "", err
			}
			return expt.FormatTable2(rows), nil
		}},
		{"fig2", all || *fig2, true, func() (string, error) {
			rows, err := suite.Fig2()
			if err != nil {
				return "", err
			}
			return expt.FormatFig2(rows), nil
		}},
		{"fig4", all || *fig4, true, func() (string, error) {
			rows, err := suite.Fig4()
			if err != nil {
				return "", err
			}
			return expt.FormatFig4(rows), nil
		}},
		{"fig5", all || *fig5, true, func() (string, error) {
			rows, err := suite.Fig5()
			if err != nil {
				return "", err
			}
			return expt.FormatFig5(rows), nil
		}},
		{"fig6", all || *fig6, true, func() (string, error) {
			rows, err := suite.Fig6()
			if err != nil {
				return "", err
			}
			return expt.FormatFig6(rows), nil
		}},
		{"fig7", all || *fig7, true, func() (string, error) {
			rows, err := suite.Fig7()
			if err != nil {
				return "", err
			}
			return expt.FormatFig7(rows), nil
		}},
		{"fig8", all || *fig8, true, func() (string, error) {
			rows, err := suite.Fig8()
			if err != nil {
				return "", err
			}
			return expt.FormatFig8(rows), nil
		}},
		{"kintra", all || *kintra, true, func() (string, error) {
			rows, err := suite.KIntraSweep()
			if err != nil {
				return "", err
			}
			return expt.MinKIntraNote() + expt.FormatKIntra(rows), nil
		}},
		{"stealing", all || *stealing, true, func() (string, error) {
			st, err := expt.RunStealingStudy()
			if err != nil {
				return "", err
			}
			return expt.FormatStealing(st), nil
		}},
		{"phased", all || *phased, true, func() (string, error) {
			rows, err := suite.PhaseAdaptiveStudy()
			if err != nil {
				return "", err
			}
			return expt.FormatPhased(rows), nil
		}},
		{"wifail", all || *wifail, true, func() (string, error) {
			rows, err := suite.WIFailureStudy(expt.DefaultWIFailureApp, expt.DefaultWIFailures)
			if err != nil {
				return "", err
			}
			return expt.FormatWIFailure(rows), nil
		}},
		{"margins", all || *margins, true, func() (string, error) {
			rows, err := suite.MarginSweep(expt.DefaultMarginApp, expt.DefaultMargins)
			if err != nil {
				return "", err
			}
			return expt.FormatMargin(rows), nil
		}},
		// The governor section is opt-in only (never part of `all`), so a
		// flagless run's stdout stays byte-identical to earlier releases.
		{"governor", *policy != "", true, func() (string, error) {
			rows, err := suite.GovernorStudy(*capWatts)
			if err != nil {
				return "", err
			}
			return expt.FormatGovernor(rows), nil
		}},
		// The sweep section is opt-in only for the same reason; it writes
		// its optional atlas JSON to a file, never stdout.
		{"sweep", *sweepSpec != "", true, func() (string, error) {
			spec, err := sweep.LoadSpec(*sweepSpec)
			if err != nil {
				return "", err
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
				return "", err
			}
			if *sweepAtlas != "" {
				blob, err := json.MarshalIndent(res.Atlas, "", "  ")
				if err != nil {
					return "", err
				}
				if err := os.WriteFile(*sweepAtlas, append(blob, '\n'), 0o644); err != nil {
					return "", err
				}
			}
			return res.Atlas.Format(), nil
		}},
		{"summary", all || *summary, false, func() (string, error) {
			rows, err := suite.Fig8()
			if err != nil {
				return "", err
			}
			return expt.FormatSummary(expt.Summarize(rows)), nil
		}},
	}
	for _, sec := range sections {
		if !sec.enabled {
			continue
		}
		sp := obs.StartSpan("render", sec.name)
		out, err := sec.render()
		sp.End()
		if err != nil {
			fail(err)
		}
		fmt.Print(out)
		if sec.newline {
			fmt.Println()
		}
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

	// Fidelity runs after every section has printed: it re-reads the warm
	// pipelines and writes only to files and stderr, so stdout above is
	// byte-identical with or without it.
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
		snap, err := expt.CollectSnapshot(suite)
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
