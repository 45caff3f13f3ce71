package expt

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"wivfi/internal/fidelity"
	"wivfi/internal/platform"
)

// fullSnapshot is the snapshot of the package's one section pass: every
// section runs once on the shared suite and the snapshot reuses its rows.
func fullSnapshot(t *testing.T) *fidelity.Snapshot {
	t.Helper()
	return runSectionPass(t).snap
}

func TestGHzMultiset(t *testing.T) {
	pts := []platform.OperatingPoint{
		{VoltageV: 1.0, FreqGHz: 2.5},
		{VoltageV: 0.9, FreqGHz: 2.0},
		{VoltageV: 1.0, FreqGHz: 2.5},
		{VoltageV: 0.95, FreqGHz: 2.25},
	}
	if got, want := GHzMultiset(pts), "2 2.25 2.5 2.5"; got != want {
		t.Errorf("GHzMultiset = %q, want %q", got, want)
	}
}

// TestSnapshotCoverage pins the snapshot's shape: every figure, table and
// study of the reproduction is present, with the expected rows. A section
// silently dropping out of the snapshot would otherwise only be caught by
// the scoreboard's missing-metric failures.
func TestSnapshotCoverage(t *testing.T) {
	snap := fullSnapshot(t)

	if snap.Schema != fidelity.SchemaVersion {
		t.Errorf("schema = %d, want %d", snap.Schema, fidelity.SchemaVersion)
	}
	if snap.ConfigHash != ConfigHash(sharedSuite(t).Config) {
		t.Errorf("config hash %q does not match the suite config", snap.ConfigHash)
	}

	wantRows := map[string]int{
		"table1":   len(AppOrder),
		"table2":   len(AppOrder),
		"fig2":     len(Fig2Apps),
		"fig4":     len(Fig4Apps),
		"fig5":     len(Fig4Apps),
		"fig6":     len(AppOrder),
		"fig7":     2 * len(AppOrder),
		"fig8":     len(AppOrder),
		"kintra":   len(AppOrder),
		"stealing": 1,
		"phased":   len(AppOrder),
		"wifail":   len(DefaultWIFailures),
		"margins":  len(DefaultMargins),
		"governor": len(AppOrder),
		"summary":  1,
	}
	if len(snap.Sections) != len(wantRows) {
		t.Errorf("snapshot has %d sections, want %d", len(snap.Sections), len(wantRows))
	}
	for id, want := range wantRows {
		sec := snap.Section(id)
		if sec == nil {
			t.Errorf("section %q missing", id)
			continue
		}
		if len(sec.Rows) != want {
			t.Errorf("section %q has %d rows, want %d", id, len(sec.Rows), want)
		}
	}

	// spot-check the row shapes consumers rely on
	for _, app := range Fig2Apps {
		r := snap.Section("fig2").Row(app)
		if r == nil || len(r.Series) != 64 {
			t.Errorf("fig2[%s] should carry the 64-point utilization series", app)
		}
	}
	for _, app := range AppOrder {
		if _, ok := snap.Label("fig8", app, "strategy"); !ok {
			t.Errorf("fig8[%s] missing the placement-strategy label", app)
		}
		if _, ok := snap.Label("table2", app, "vfi2_ghz"); !ok {
			t.Errorf("table2[%s] missing the vfi2_ghz multiset label", app)
		}
		if _, ok := snap.Metric("fig7", app+"/vfi-winoc", "total"); !ok {
			t.Errorf("fig7[%s/vfi-winoc].total missing", app)
		}
	}
	if _, ok := snap.Metric("wifail", "wc/12", "edp_ratio"); !ok {
		t.Error("wifail[wc/12].edp_ratio missing")
	}
	if _, ok := snap.Metric("margins", "kmeans/0.35", "edp_ratio"); !ok {
		t.Error("margins[kmeans/0.35].edp_ratio missing")
	}
	if _, ok := snap.Label("summary", "headline", "max_edp_saving_app"); !ok {
		t.Error("summary[headline].max_edp_saving_app missing")
	}
}

// TestSnapshotLeavesOutputUnchanged is the tentpole guarantee: collecting a
// snapshot must not perturb the rendered text in any way. Render, collect,
// render again — byte-identical.
func TestSnapshotLeavesOutputUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("full snapshot collection is slow")
	}
	s := sharedSuite(t)
	render := func() string {
		rows8, err := s.Fig8()
		if err != nil {
			t.Fatal(err)
		}
		rows2, err := s.Table2()
		if err != nil {
			t.Fatal(err)
		}
		return FormatTable2(rows2) + FormatFig8(rows8) + FormatSummary(Summarize(rows8))
	}
	before := render()
	fullSnapshot(t)
	after := render()
	if before != after {
		t.Errorf("rendered output changed across CollectSnapshot:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// TestSnapshotRoundTrip writes the snapshot to disk and reads it back.
func TestSnapshotRoundTrip(t *testing.T) {
	snap := fullSnapshot(t)
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := fidelity.WriteFile(path, snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := fidelity.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ConfigHash != snap.ConfigHash {
		t.Errorf("config hash changed across round trip")
	}
	rep := fidelity.Diff(loaded, snap, fidelity.DiffOptions{})
	if regs := rep.Regressions(); len(regs) != 0 {
		t.Errorf("round-tripped snapshot diffs against itself: %v", regs)
	}
}

// TestPaperChecksAllGreen evaluates the scoreboard against a live snapshot:
// no check may fail. Warns are expected — the damped headline savings are
// documented deviations — but a fail means either the reproduction or the
// scoreboard's tolerances are broken, and -check would gate CI.
func TestPaperChecksAllGreen(t *testing.T) {
	snap := fullSnapshot(t)
	results := fidelity.Evaluate(snap, PaperChecks())
	tally := fidelity.Count(results)
	for _, r := range fidelity.Failures(results) {
		t.Errorf("check %s failed at %s: %s", r.ID, r.Addr(), r.Note)
	}
	if tally.Pass < 40 {
		t.Errorf("only %d checks pass (%d warn) — scoreboard coverage collapsed", tally.Pass, tally.Warn)
	}
}

// TestPaperChecksCatchTampering flips one metric and one label and expects
// the matching checks to fail — the scoreboard must actually be wired to the
// values it claims to guard.
func TestPaperChecksCatchTampering(t *testing.T) {
	snap := fullSnapshot(t)
	blob, err := snap.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	tampered := tamper(t, blob, func(s *fidelity.Snapshot) {
		s.Section("fig8").Row("kmeans").Values["edp_winoc"] = 2.0
		s.Section("table2").Row("pca").Labels["vfi2_ghz"] = "1.5 1.5 1.5 1.5"
	})
	failed := map[string]bool{}
	for _, r := range fidelity.Failures(fidelity.Evaluate(tampered, PaperChecks())) {
		failed[r.ID] = true
	}
	for _, id := range []string{"fig8.kmeans.winoc_beats_mesh", "table2.pca.vfi2"} {
		if !failed[id] {
			t.Errorf("tampering did not fail check %s (failed: %v)", id, failed)
		}
	}
}

func tamper(t *testing.T, blob []byte, mutate func(*fidelity.Snapshot)) *fidelity.Snapshot {
	t.Helper()
	var s fidelity.Snapshot
	if err := json.Unmarshal(blob, &s); err != nil {
		t.Fatal(err)
	}
	mutate(&s)
	return &s
}
