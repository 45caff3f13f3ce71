package expt

import (
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"wivfi/internal/fidelity"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// checkGolden compares got against testdata/<name>.golden byte-for-byte.
// The golden files lock the exact text cmd/reproduce prints, so an
// accidental formatting change (or a telemetry path leaking onto stdout)
// fails here before it invalidates anyone's saved output. Regenerate with
// `go test ./internal/expt -run TestGolden -update`.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s output drifted from %s:\n--- got ---\n%s--- want ---\n%s", name, path, got, want)
	}
}

// sectionPass is one run of every snapshot section on the warm shared
// suite, as cmd/reproduce -snapshot makes it: each section's text, the
// snapshot built from the rows those runs computed, and the design-time
// planning work of the text pass and of the whole.
type sectionPass struct {
	text              map[string]string
	snap              *fidelity.Snapshot
	textWork, allWork planWork
	err               error
}

var (
	sectionPassOnce sync.Once
	sectionPassRes  sectionPass
)

func runSectionPass(t *testing.T) *sectionPass {
	t.Helper()
	if testing.Short() {
		t.Skip("runs every figure, table and study")
	}
	s := sharedSuite(t)
	sectionPassOnce.Do(func() {
		p := &sectionPassRes
		if p.err = s.Prewarm(); p.err != nil {
			return
		}
		w0 := readPlanWork()
		p.text = map[string]string{}
		var computed []fidelity.Section
		for _, sec := range snapshotSections() {
			text, fsec, err := sec.Run(s)
			if err != nil {
				p.err = err
				return
			}
			p.text[sec.ID] = text
			computed = append(computed, fsec)
		}
		p.textWork = readPlanWork().since(w0)
		p.snap, p.err = CollectSnapshot(s, computed...)
		p.allWork = readPlanWork().since(w0)
	})
	if sectionPassRes.err != nil {
		t.Fatal(sectionPassRes.err)
	}
	return &sectionPassRes
}

// goldenStudies names the heavier studies; TestGoldenStudies locks them.
var goldenStudies = map[string]bool{
	"kintra": true, "phased": true, "wifail": true, "margins": true, "governor": true,
}

// isStatic reports a section that prewarms no pipeline: it needs no
// simulation of the shared suite.
func isStatic(sec Section) bool { return len(sec.Apps) == 0 }

// TestGoldenStatic locks the sections that need no simulation.
func TestGoldenStatic(t *testing.T) {
	s := sharedSuite(t)
	for _, sec := range snapshotSections() {
		if !isStatic(sec) {
			continue
		}
		t.Run(sec.ID, func(t *testing.T) {
			text, _, err := sec.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, sec.ID, text)
		})
	}
}

// TestGoldenFigures locks every figure and table, and the summary,
// against the deterministic simulation results.
func TestGoldenFigures(t *testing.T) {
	p := runSectionPass(t)
	for _, sec := range snapshotSections() {
		if isStatic(sec) || goldenStudies[sec.ID] {
			continue
		}
		t.Run(sec.ID, func(t *testing.T) { checkGolden(t, sec.ID, p.text[sec.ID]) })
	}
}

// TestGoldenStudies locks the heavier studies, the governor study at the
// default cap included.
func TestGoldenStudies(t *testing.T) {
	p := runSectionPass(t)
	for _, sec := range snapshotSections() {
		if !goldenStudies[sec.ID] {
			continue
		}
		if isStatic(sec) {
			t.Errorf("study %s prewarms no pipeline, so TestGoldenStatic would claim it", sec.ID)
		}
		t.Run(sec.ID, func(t *testing.T) { checkGolden(t, sec.ID, p.text[sec.ID]) })
	}
}

// TestSnapshotReusesSectionRuns: building the snapshot from sections that
// already ran does no planning of its own — the text pass plus the
// snapshot anneal, score, map and cluster exactly as often as the text
// pass alone.
func TestSnapshotReusesSectionRuns(t *testing.T) {
	p := runSectionPass(t)
	if p.allWork != p.textWork {
		t.Errorf("text pass + snapshot did %+v, text pass alone %+v", p.allWork, p.textWork)
	}
}
