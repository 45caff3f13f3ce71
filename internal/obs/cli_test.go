package obs

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"wivfi/internal/timeline"
)

// startCLI parses args into a fresh session and starts it from a clean
// slate, uninstalling whatever it installed when the test ends.
func startCLI(t *testing.T, withTimeline bool, args ...string) *CLI {
	t.Helper()
	fs := flag.NewFlagSet("clitest", flag.ContinueOnError)
	c := NewCLI(fs, withTimeline)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		Install(nil)
		timeline.Install(nil)
		SetVerbose(false)
	})
	Install(nil)
	timeline.Install(nil)
	if err := c.Start("clitest"); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCLISessionWritesTimelineAndManifest(t *testing.T) {
	dir := t.TempDir()
	tlDir := filepath.Join(dir, "tl")
	manifestPath := filepath.Join(dir, "m.json")
	c := startCLI(t, true, "-timeline", tlDir, "-manifest", manifestPath)
	if !Enabled() || timeline.Active() == nil {
		t.Fatal("Start did not install both the recorder and the collector")
	}
	h := timeline.Active().Histogram(timeline.Meta{Name: "clitest/latency", IndexUnit: "cycles", Unit: "cycles"})
	for v := int64(1); v <= 50; v++ {
		h.Observe(v)
	}
	StartSpan("clitest", "").End()
	if err := c.Finish(nil); err != nil {
		t.Fatal(err)
	}

	set, err := timeline.ReadSetFile(filepath.Join(tlDir, timeline.JSONFile))
	if err != nil {
		t.Fatalf("timeline.json not written: %v", err)
	}
	if !reflect.DeepEqual(set, c.Timelines()) {
		t.Errorf("timeline.json differs from Timelines()")
	}
	blob, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	want := histogramSummaries(c.Timelines())
	if len(want) != 1 || want[0].Name != "clitest/latency" || want[0].Count != 50 {
		t.Fatalf("summaries of Timelines() = %+v", want)
	}
	if !reflect.DeepEqual(m.Histograms, want) {
		t.Errorf("manifest histograms = %+v, want %+v", m.Histograms, want)
	}
	if m.Command != "clitest" || len(m.Stages) != 1 {
		t.Errorf("manifest command %q, %d stages", m.Command, len(m.Stages))
	}
}

func TestCLIWithoutFlagsInstallsNothing(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
	c := startCLI(t, true)
	if Enabled() || timeline.Active() != nil {
		t.Fatal("flagless Start installed a recorder or collector")
	}
	if c.Timelines() != nil || c.BuildManifest(nil) != nil {
		t.Error("flagless session exported timelines or a manifest")
	}
	if err := c.Finish(func(*Manifest) { t.Error("customize called without a manifest") }); err != nil {
		t.Fatal(err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Errorf("flagless Finish wrote %d file(s)", len(ents))
	}
}

func TestCLIForceWithoutTimelineFlag(t *testing.T) {
	fs := flag.NewFlagSet("clitest", flag.ContinueOnError)
	c := NewCLI(fs, false)
	if fs.Lookup("timeline") != nil {
		t.Error("-timeline registered for a tool that collects no series")
	}
	t.Cleanup(func() {
		Install(nil)
		timeline.Install(nil)
	})
	c.Force()
	if err := c.Start("clitest"); err != nil {
		t.Fatal(err)
	}
	if !Enabled() || timeline.Active() == nil || c.Timelines() == nil {
		t.Error("Force did not install both the recorder and the collector")
	}
}

func TestHistogramSummaries(t *testing.T) {
	c := timeline.NewCollector()
	h := c.Histogram(timeline.Meta{Name: "lat", Unit: "cycles"})
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	c.Sampler(timeline.Meta{Name: "busy"}, 1, timeline.Sum).Add(0, 1)
	sums := histogramSummaries(c.Export("t"))
	if len(sums) != 1 {
		t.Fatalf("summaries = %d", len(sums))
	}
	s := sums[0]
	if s.Name != "lat" || s.Unit != "cycles" || s.Count != 100 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("summary = %+v", s)
	}
	if s.P50 < 45 || s.P50 > 56 {
		t.Fatalf("p50 = %d", s.P50)
	}
	if histogramSummaries(nil) != nil {
		t.Fatal("nil set produced summaries")
	}
}
