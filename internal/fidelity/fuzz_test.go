package fidelity_test

import (
	"path/filepath"
	"testing"

	"wivfi/internal/expt"
	"wivfi/internal/fidelity"
)

// FuzzSnapshot fuzzes the snapshot boundary: the bytes LoadFile parses,
// then everything downstream of an accepted document. An accepted snapshot
// must diff clean against itself, comparing every value and series
// element exactly once; the scoreboard, the diffs against the committed
// baseline and both report renderers must run on it without panicking.
// Seeds in testdata/fuzz/FuzzSnapshot: the committed baseline, a truncated
// copy, a wrong schema, a duplicate section id, a duplicate row key, a
// baseline with one series cut short, and a series whose range overflows
// a float64 (it made the sparkline renderers index with NaN).
func FuzzSnapshot(f *testing.F) {
	baseline, err := fidelity.LoadFile(filepath.Join("..", "..", "testdata", "fidelity-baseline.json"))
	if err != nil {
		f.Fatal(err)
	}
	checks := expt.PaperChecks()
	f.Fuzz(func(t *testing.T, blob []byte) {
		s, err := fidelity.Parse(blob)
		if err != nil {
			return
		}
		self := fidelity.Diff(s, s, fidelity.DiffOptions{})
		if !self.Clean() {
			t.Errorf("snapshot diffs against itself: %v", self.Findings)
		}
		want := 0
		for _, sec := range s.Sections {
			for _, r := range sec.Rows {
				want += len(r.Values) + len(r.Series)
			}
		}
		if self.Compared != want {
			t.Errorf("self-diff compared %d metrics, the snapshot holds %d values and series elements", self.Compared, want)
		}
		fidelity.Diff(s, baseline, fidelity.DiffOptions{})
		diff := fidelity.Diff(baseline, s, fidelity.DiffOptions{})
		data := fidelity.ReportData{
			Title:    "fuzz",
			Snapshot: s,
			Results:  fidelity.Evaluate(s, checks),
			Diff:     diff,
		}
		fidelity.RenderMarkdown(data)
		if _, err := fidelity.RenderHTML(data); err != nil {
			t.Errorf("HTML report: %v", err)
		}
	})
}
