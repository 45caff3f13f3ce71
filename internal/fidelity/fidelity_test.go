package fidelity

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sample builds a small two-section snapshot for the unit tests.
func sample() *Snapshot {
	return &Snapshot{
		Schema:     SchemaVersion,
		Tool:       "test",
		ConfigHash: "cafe",
		Sections: []Section{
			{ID: "fig8", Title: "Fig. 8", Rows: []Row{
				{Key: "wc", Values: map[string]float64{"edp_mesh": 0.851, "edp_winoc": 0.793}, Labels: map[string]string{"strategy": "max-wireless"}},
				{Key: "kmeans", Values: map[string]float64{"edp_mesh": 0.557, "edp_winoc": 0.493}},
			}},
			{ID: "fig2", Title: "Fig. 2", Rows: []Row{
				{Key: "pca", Values: map[string]float64{"avg": 0.496}, Series: []float64{0.75, 0.52, 0.5, 0.45}},
			}},
		},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := sample()
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := WriteFile(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ConfigHash != "cafe" || len(got.Sections) != 2 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if v, ok := got.Metric("fig8", "wc", "edp_winoc"); !ok || v != 0.793 {
		t.Fatalf("Metric lookup = %v, %v", v, ok)
	}
	if l, ok := got.Label("fig8", "wc", "strategy"); !ok || l != "max-wireless" {
		t.Fatalf("Label lookup = %q, %v", l, ok)
	}
	if _, ok := got.Metric("fig8", "nosuch", "edp_winoc"); ok {
		t.Fatal("lookup of missing row succeeded")
	}
	if _, ok := got.Metric("nosuch", "wc", "edp_winoc"); ok {
		t.Fatal("lookup of missing section succeeded")
	}
}

func TestLoadRejectsSchemaMismatch(t *testing.T) {
	s := sample()
	s.Schema = SchemaVersion + 1
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := WriteFile(path, s); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("schema mismatch not rejected: %v", err)
	}
}

func TestMarshalDeterministic(t *testing.T) {
	a, err := sample().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sample().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("snapshot marshaling is not deterministic")
	}
	if !json.Valid(a) {
		t.Error("snapshot is not valid JSON")
	}
}

func TestAddress(t *testing.T) {
	if got := Address("fig8", "wc", "edp_winoc"); got != "fig8[wc].edp_winoc" {
		t.Errorf("Address = %q", got)
	}
}

func TestEvaluateVerdicts(t *testing.T) {
	s := sample()
	checks := []Check{
		{ID: "near-pass", Section: "fig8", Row: "wc", Value: "edp_mesh", Kind: Near, Want: 0.85, PassTol: 0.01, WarnTol: 0.05},
		{ID: "near-warn", Section: "fig8", Row: "wc", Value: "edp_mesh", Kind: Near, Want: 0.88, PassTol: 0.01, WarnTol: 0.05},
		{ID: "near-fail", Section: "fig8", Row: "wc", Value: "edp_mesh", Kind: Near, Want: 0.5, PassTol: 0.01, WarnTol: 0.05},
		{ID: "atmost-pass", Section: "fig8", Row: "wc", Value: "edp_mesh", Kind: AtMost, Want: 1.0},
		{ID: "atmost-fail", Section: "fig8", Row: "wc", Value: "edp_mesh", Kind: AtMost, Want: 0.5},
		{ID: "atleast-pass", Section: "fig8", Row: "wc", Value: "edp_mesh", Kind: AtLeast, Want: 0.5},
		{ID: "less-pass", Section: "fig8", Row: "wc", Value: "edp_winoc", Kind: LessThanMetric, OtherValue: "edp_mesh"},
		{ID: "less-fail", Section: "fig8", Row: "wc", Value: "edp_mesh", Kind: LessThanMetric, OtherValue: "edp_winoc"},
		{ID: "less-cross-row", Section: "fig8", Row: "kmeans", Value: "edp_winoc", Kind: LessThanMetric, OtherRow: "wc", OtherValue: "edp_mesh"},
		{ID: "label-pass", Section: "fig8", Row: "wc", Value: "strategy", Kind: LabelIs, WantLabel: "max-wireless"},
		{ID: "label-fail", Section: "fig8", Row: "wc", Value: "strategy", Kind: LabelIs, WantLabel: "min-hop"},
		{ID: "missing", Section: "fig8", Row: "wc", Value: "nosuch", Kind: Near, Want: 1},
		{ID: "missing-row", Section: "fig8", Row: "nosuch", Value: "edp_mesh", Kind: Near, Want: 1},
	}
	want := map[string]Verdict{
		"near-pass": Pass, "near-warn": Warn, "near-fail": Fail,
		"atmost-pass": Pass, "atmost-fail": Fail, "atleast-pass": Pass,
		"less-pass": Pass, "less-fail": Fail, "less-cross-row": Pass,
		"label-pass": Pass, "label-fail": Fail,
		"missing": Fail, "missing-row": Fail,
	}
	results := Evaluate(s, checks)
	if len(results) != len(checks) {
		t.Fatalf("%d results for %d checks", len(results), len(checks))
	}
	for _, r := range results {
		if r.Verdict != want[r.ID] {
			t.Errorf("%s: verdict %v, want %v (%s)", r.ID, r.Verdict, want[r.ID], r.Note)
		}
		if r.Note == "" {
			t.Errorf("%s: empty note", r.ID)
		}
	}
	tally := Count(results)
	if tally.Pass != 6 || tally.Warn != 1 || tally.Fail != 6 {
		t.Errorf("tally = %+v", tally)
	}
	if got := len(Failures(results)); got != 6 {
		t.Errorf("%d failures", got)
	}
}

func TestDiffCleanOnIdentical(t *testing.T) {
	d := Diff(sample(), sample(), DiffOptions{})
	if !d.Clean() {
		t.Fatalf("identical snapshots not clean: %+v", d.Findings)
	}
	// 5 scalars + 4 series points
	if d.Compared != 9 {
		t.Errorf("compared %d metrics, want 9", d.Compared)
	}
}

func TestDiffWithinToleranceIsClean(t *testing.T) {
	cur := sample()
	cur.Sections[0].Rows[0].Values["edp_mesh"] *= 1 + 1e-9 // far inside 1e-6 rel tol
	if d := Diff(cur, sample(), DiffOptions{}); !d.Clean() {
		t.Errorf("sub-tolerance drift flagged: %+v", d.Findings)
	}
}

func TestDiffNamesTamperedMetric(t *testing.T) {
	cur := sample()
	cur.Sections[0].Rows[1].Values["edp_winoc"] = 0.6 // kmeans regression
	d := Diff(cur, sample(), DiffOptions{})
	if d.Clean() {
		t.Fatal("tampered snapshot diffed clean")
	}
	regs := d.Regressions()
	if len(regs) != 1 {
		t.Fatalf("findings = %+v", regs)
	}
	if regs[0].Address != "fig8[kmeans].edp_winoc" || regs[0].Kind != Changed {
		t.Errorf("finding does not name the offending metric: %+v", regs[0])
	}
	if !strings.Contains(regs[0].String(), "fig8[kmeans].edp_winoc") {
		t.Errorf("finding string %q does not name the metric", regs[0].String())
	}
}

func TestDiffStructuralChanges(t *testing.T) {
	cur := sample()
	// remove a row, a label, and change a series point; add a new metric
	cur.Sections[0].Rows = cur.Sections[0].Rows[:1]
	delete(cur.Sections[0].Rows[0].Labels, "strategy")
	cur.Sections[1].Rows[0].Series[2] = 0.9
	cur.Sections[1].Rows[0].Values["extra"] = 1
	d := Diff(cur, sample(), DiffOptions{})
	kinds := map[FindingKind]int{}
	byAddr := map[string]Finding{}
	for _, f := range d.Findings {
		kinds[f.Kind]++
		byAddr[f.Address] = f
	}
	if kinds[Removed] != 2 { // kmeans row + strategy label
		t.Errorf("removed findings: %+v", d.Findings)
	}
	if kinds[Added] != 1 {
		t.Errorf("added findings: %+v", d.Findings)
	}
	if f, ok := byAddr["fig2[pca].series[2]"]; !ok || f.Kind != Changed {
		t.Errorf("series change not localized: %+v", d.Findings)
	}
	if d.Clean() {
		t.Error("structural regressions diffed clean")
	}
}

func TestDiffConfigMismatch(t *testing.T) {
	cur := sample()
	cur.ConfigHash = "beef"
	d := Diff(cur, sample(), DiffOptions{})
	if !d.ConfigMismatch || d.Clean() {
		t.Errorf("config mismatch not flagged: %+v", d)
	}
}

func TestWriteReportHTMLAndMarkdown(t *testing.T) {
	s := sample()
	results := Evaluate(s, []Check{
		{ID: "ok", Detail: "WiNoC beats mesh on WC", Section: "fig8", Row: "wc", Value: "edp_winoc", Kind: LessThanMetric, OtherValue: "edp_mesh"},
		{ID: "bad", Detail: "impossible target", Section: "fig8", Row: "wc", Value: "edp_mesh", Kind: AtMost, Want: 0.1},
	})
	cur := sample()
	cur.Sections[0].Rows[0].Values["edp_mesh"] = 0.99
	diff := Diff(cur, s, DiffOptions{})
	dir := t.TempDir()

	htmlPath := filepath.Join(dir, "report.html")
	if err := WriteReport(htmlPath, ReportData{
		Title: "test report", Snapshot: cur, Results: results, Diff: diff, BaselinePath: "base.json",
	}); err != nil {
		t.Fatal(err)
	}
	html, err := os.ReadFile(htmlPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"<!doctype html>", "Paper-fidelity scoreboard", "fig8[wc].edp_mesh",
		"WiNoC beats mesh on WC", "Baseline diff", "svg", "polyline",
	} {
		if !strings.Contains(string(html), want) {
			t.Errorf("HTML report missing %q", want)
		}
	}

	mdPath := filepath.Join(dir, "report.md")
	if err := WriteReport(mdPath, ReportData{Title: "test report", Snapshot: cur, Results: results}); err != nil {
		t.Fatal(err)
	}
	md, err := os.ReadFile(mdPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# test report", "| verdict |", "❌ fail", "### Fig. 2"} {
		if !strings.Contains(string(md), want) {
			t.Errorf("markdown report missing %q", want)
		}
	}
	if !strings.ContainsAny(string(md), "▁▂▃▄▅▆▇█") {
		t.Error("markdown report has no sparkline")
	}
}

func TestSparkGlyphs(t *testing.T) {
	if got := sparkGlyphs([]float64{0, 1}); got != "▁█" {
		t.Errorf("sparkGlyphs = %q", got)
	}
	if got := sparkGlyphs([]float64{1, 1, 1}); got != "▁▁▁" {
		t.Errorf("flat series = %q", got)
	}
	if sparkGlyphs(nil) != "" {
		t.Error("nil series should render empty")
	}
}
