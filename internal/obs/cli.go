package obs

import (
	"flag"
	"fmt"
	"os"

	"wivfi/internal/timeline"
)

// CLI is the telemetry session of one command-line run: the shared flags
// (-trace, -manifest, -v, -debug-addr and, for tools that collect
// time-resolved series, -timeline), the span Recorder and the timeline
// Collector it installs, and the artifacts it writes at the end. Usage:
//
//	cli := obs.NewCLI(flag.CommandLine, true)
//	flag.Parse()
//	if err := cli.Start("reproduce"); err != nil { ... }
//	... run ...
//	if err := cli.Finish(func(m *obs.Manifest) { m.Jobs = jobs }); err != nil { ... }
type CLI struct {
	TracePath    string
	ManifestPath string
	DebugAddr    string
	Verbose      bool
	// TimelineDir is the artifact directory from -timeline ("" = none).
	TimelineDir string

	cmd   string
	rec   *Recorder
	col   *timeline.Collector
	set   *timeline.Set
	wrote bool // the -timeline directory has been written
	force bool
}

// NewCLI registers the telemetry flags on fs. withTimeline also registers
// -timeline, for tools whose runs produce time-resolved series.
func NewCLI(fs *flag.FlagSet, withTimeline bool) *CLI {
	c := &CLI{}
	fs.StringVar(&c.TracePath, "trace", "", "write a Chrome trace_event JSON file (open in Perfetto or chrome://tracing)")
	fs.StringVar(&c.ManifestPath, "manifest", "", "write a machine-readable run manifest (JSON)")
	fs.BoolVar(&c.Verbose, "v", false, "print progress lines to stderr")
	fs.StringVar(&c.DebugAddr, "debug-addr", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	if withTimeline {
		fs.StringVar(&c.TimelineDir, "timeline", "", "write time-resolved series (timeline.json + CSVs) to this directory")
	}
	return c
}

// Force makes the next Start install both the recorder and the collector
// whatever the flags say — callers that embed the manifest and the
// timelines elsewhere (the fidelity run report) need them regardless.
// Call it after flag parsing and before Start.
func (c *CLI) Force() { c.force = true }

// Start applies the parsed flags: verbose mode, the recorder (installed
// when a trace or manifest was requested, or Force was called), the
// timeline collector (when -timeline was given, or Force was called) and
// the debug server. cmd names the tool in the manifest, the timeline set
// and the debug banner.
func (c *CLI) Start(cmd string) error {
	c.cmd = cmd
	SetVerbose(c.Verbose)
	if c.TracePath != "" || c.ManifestPath != "" || c.force {
		c.rec = NewRecorder()
		Install(c.rec)
	}
	if c.TimelineDir != "" || c.force {
		c.col = timeline.NewCollector()
		timeline.Install(c.col)
	}
	if c.DebugAddr != "" {
		addr, err := ServeDebug(c.DebugAddr)
		if err != nil {
			return fmt.Errorf("%s: debug server: %w", cmd, err)
		}
		fmt.Fprintf(os.Stderr, "%s: debug server at http://%s/debug/pprof/ (expvar at /debug/vars)\n", cmd, addr)
	}
	return nil
}

// Timelines exports the collected series on its first call and returns
// that same set on every later one, so a report built mid-run and the
// -timeline directory Finish writes agree. Series recorded after the
// first call are not in it. Returns nil when no collector is installed.
func (c *CLI) Timelines() *timeline.Set {
	if c.col != nil && c.set == nil {
		c.set = c.col.Export(c.cmd)
	}
	return c.set
}

// WriteTimelines writes Timelines() to the -timeline directory, once:
// later calls, and the one Finish makes, do nothing. Tools that run more
// work after collecting their series call it then, so the directory is on
// disk even if that later work fails. A no-op without -timeline.
func (c *CLI) WriteTimelines() error {
	set := c.Timelines()
	if c.TimelineDir == "" || set == nil || c.wrote {
		return nil
	}
	c.wrote = true
	if err := timeline.WriteDir(c.TimelineDir, set); err != nil {
		return fmt.Errorf("%s: writing timeline: %w", c.cmd, err)
	}
	Logf("timeline written to %s (%d series)", c.TimelineDir, len(set.Series))
	return nil
}

// BuildManifest assembles the run manifest as of now, with the histogram
// table summarizing Timelines(), then applies customize (may be nil). It
// returns nil when no recorder is installed. Finish builds its -manifest
// file the same way, so a report embedding this manifest and the file on
// disk agree.
func (c *CLI) BuildManifest(customize func(*Manifest)) *Manifest {
	if c.rec == nil {
		return nil
	}
	m := c.rec.BuildManifest(c.cmd, os.Args[1:])
	m.Histograms = histogramSummaries(c.Timelines())
	if customize != nil {
		customize(&m)
	}
	return &m
}

// Finish writes the requested artifacts: the -timeline directory, the
// trace and the manifest. customize (may be nil) edits the manifest before
// it is written — the place to fill Jobs, ConfigHash, Cache and Fidelity.
// A no-op when Start installed nothing.
func (c *CLI) Finish(customize func(*Manifest)) error {
	if err := c.WriteTimelines(); err != nil {
		return err
	}
	if c.rec == nil {
		return nil
	}
	if c.TracePath != "" {
		if err := c.rec.WriteChromeTraceFile(c.TracePath); err != nil {
			return fmt.Errorf("%s: writing trace: %w", c.cmd, err)
		}
		Logf("trace written to %s", c.TracePath)
	}
	if c.ManifestPath != "" {
		m := c.BuildManifest(customize)
		if err := WriteManifestFile(c.ManifestPath, *m); err != nil {
			return fmt.Errorf("%s: writing manifest: %w", c.cmd, err)
		}
		Logf("manifest written to %s", c.ManifestPath)
	}
	return nil
}

// histogramSummaries condenses the set's histograms into the manifest's
// histogram table, in Set (name) order. A nil set returns nil.
func histogramSummaries(set *timeline.Set) []HistogramSummary {
	if set == nil {
		return nil
	}
	var out []HistogramSummary
	for _, sr := range set.Series {
		if sr.Kind != timeline.KindHistogram || sr.Histogram == nil {
			continue
		}
		d := sr.Histogram
		out = append(out, HistogramSummary{
			Name: sr.Name, Unit: sr.Unit, Count: d.Count,
			Min: d.Min, P50: d.P50, P95: d.P95, P99: d.P99, Max: d.Max,
		})
	}
	return out
}
