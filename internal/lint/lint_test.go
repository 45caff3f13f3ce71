package lint

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoIsLintClean is the repo gate: the full analyzer suite over every
// package in the module must report nothing. This is what makes the
// determinism/nilsafe/stdoutpure/countersafe/locksafe/leaksafe contracts
// enforced-by-machine:
// `go build ./... && go test ./...` fails on any violation with zero extra
// tooling.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	mod, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Lint(mod.Root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Errorf("wivfi-lint: %d finding(s); fix them or add an audited //lint:<key> <reason> annotation", len(findings))
	}
}

// TestSeededViolationFailsCLI drives the real CLI over a fixture package
// seeded with violations and requires the non-zero exit the CI step relies
// on.
func TestSeededViolationFailsCLI(t *testing.T) {
	mod, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := RunCLI([]string{"./internal/lint/testdata/lint/stdout_pos"}, mod.Root, &stdout, &stderr)
	if code != ExitFindings {
		t.Fatalf("exit code = %d, want %d (stderr: %s)", code, ExitFindings, stderr.String())
	}
	if !strings.Contains(stdout.String(), "[stdoutpure]") {
		t.Errorf("stdout missing [stdoutpure] findings:\n%s", stdout.String())
	}
}

// TestCLICleanPackage pins the zero exit on a clean package.
func TestCLICleanPackage(t *testing.T) {
	mod, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := RunCLI([]string{"./internal/topo"}, mod.Root, &stdout, &stderr)
	if code != ExitClean {
		t.Fatalf("exit code = %d, want %d\nstdout: %s\nstderr: %s", code, ExitClean, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run wrote to stdout: %s", stdout.String())
	}
}

// TestCLIJSON checks the machine-readable mode: a valid JSON array whose
// entries carry file/line/analyzer/message, and still a failing exit.
func TestCLIJSON(t *testing.T) {
	mod, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := RunCLI([]string{"-json", "./internal/lint/testdata/lint/counter_pos"}, mod.Root, &stdout, &stderr)
	if code != ExitFindings {
		t.Fatalf("exit code = %d, want %d (stderr: %s)", code, ExitFindings, stderr.String())
	}
	var findings []Finding
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, stdout.String())
	}
	if len(findings) == 0 {
		t.Fatal("JSON output has no findings")
	}
	for _, f := range findings {
		if f.File == "" || f.Line == 0 || f.Analyzer == "" || f.Message == "" {
			t.Errorf("incomplete finding: %+v", f)
		}
		if filepath.IsAbs(f.File) {
			t.Errorf("finding path should be module-relative, got %s", f.File)
		}
	}
}

// TestCLIJSONCleanIsEmptyArray keeps the no-findings JSON form a valid
// empty array (not null), so CI artifact consumers can always json.load it.
func TestCLIJSONCleanIsEmptyArray(t *testing.T) {
	mod, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := RunCLI([]string{"-json", "./internal/topo"}, mod.Root, &stdout, &stderr)
	if code != ExitClean {
		t.Fatalf("exit code = %d, want %d (stderr: %s)", code, ExitClean, stderr.String())
	}
	if got := strings.TrimSpace(stdout.String()); got != "[]" {
		t.Errorf("clean -json output = %q, want []", got)
	}
}

// TestCLIPkgsFilter pins that the package patterns scope the findings:
// a clean package linted next to a violating one reports only the
// violating one's findings, and linted alone reports nothing.
func TestCLIPkgsFilter(t *testing.T) {
	mod, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	pos := "./internal/lint/testdata/lint/stdout_pos"
	neg := "./internal/lint/testdata/lint/stdout_neg"

	var stdout, stderr bytes.Buffer
	if code := RunCLI([]string{pos, neg}, mod.Root, &stdout, &stderr); code != ExitFindings {
		t.Fatalf("pos+neg exit = %d, want %d (stderr: %s)", code, ExitFindings, stderr.String())
	}
	if strings.Contains(stdout.String(), "stdout_neg") {
		t.Errorf("clean package reported findings:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "[stdoutpure]") {
		t.Errorf("violating package lost its [stdoutpure] findings:\n%s", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := RunCLI([]string{neg}, mod.Root, &stdout, &stderr); code != ExitClean {
		t.Fatalf("neg-only exit = %d, want %d\nstdout: %s", code, ExitClean, stdout.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run reported findings:\n%s", stdout.String())
	}
}

// TestCLIPkgsBadPattern pins the usage-error exit for an unresolvable
// package pattern.
func TestCLIPkgsBadPattern(t *testing.T) {
	mod, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := RunCLI([]string{"./does-not-exist", "./internal/topo"}, mod.Root, &stdout, &stderr); code != ExitError {
		t.Fatalf("exit code = %d, want %d", code, ExitError)
	}
	if !strings.Contains(stderr.String(), "does-not-exist") {
		t.Errorf("stderr should name the bad pattern: %s", stderr.String())
	}
}

// TestCLIUnknownAnalyzer pins the usage-error exit code: there is no
// analyzer selection (every run is the full suite), so the old -only flag
// is an undefined flag, not a silently ignored one.
func TestCLIUnknownAnalyzer(t *testing.T) {
	mod, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := RunCLI([]string{"-only", "nope", "./internal/topo"}, mod.Root, &stdout, &stderr); code != ExitError {
		t.Fatalf("exit code = %d, want %d", code, ExitError)
	}
	if !strings.Contains(stderr.String(), "-only") {
		t.Errorf("stderr should name the undefined flag: %s", stderr.String())
	}
}

// TestSuppressionMatching pins the annotation scope: same line and the
// line above suppress; two lines above does not.
func TestSuppressionMatching(t *testing.T) {
	s := &suppressionSet{byLine: map[string]map[int]*suppression{
		"f.go": {
			10: {file: "f.go", line: 10, key: "ordered", reason: "audited"},
			20: {file: "f.go", line: 20, key: "ordered", reason: ""},
		},
	}}
	if !s.use("f.go", 10, "ordered") {
		t.Error("same-line annotation should suppress")
	}
	if !s.use("f.go", 11, "ordered") {
		t.Error("line-above annotation should suppress")
	}
	if s.use("f.go", 12, "ordered") {
		t.Error("two lines below should not suppress")
	}
	if s.use("f.go", 10, "wallclock") {
		t.Error("key mismatch should not suppress")
	}
	if s.use("f.go", 20, "ordered") {
		t.Error("reasonless annotation must not suppress")
	}
}

// TestStaleSuppressionStillFires pins the other side: under a full active
// suite, an annotation that suppresses nothing IS stale (annot_pos's
// //lint:ordered line stays a finding — see the annotation golden).
func TestStaleSuppressionStillFires(t *testing.T) {
	mod, pkgs, root := loadFixtures(t, "annot_pos")
	cfg := DefaultConfig(mod.Path)
	cfg.ResultPackages = append(cfg.ResultPackages, fixturePath(mod, root, "annot_pos"))
	stale := false
	for _, f := range NewSuite(cfg, root).Run(pkgs) {
		if f.Analyzer == "annotation" && strings.Contains(f.Message, "stale") {
			stale = true
		}
	}
	if !stale {
		t.Error("full-suite run should still report the stale annotation")
	}
}

// TestDefaultConfigCoversRoadmapPackages guards the config against drift:
// every result-producing package named in the issue stays enforced.
func TestDefaultConfigCoversRoadmapPackages(t *testing.T) {
	cfg := DefaultConfig("wivfi")
	for _, rel := range []string{
		"internal/noc", "internal/mapreduce", "internal/expt", "internal/vfi",
		"internal/qp", "internal/energy", "internal/topo", "internal/place",
		"internal/sched", "internal/stats", "internal/fidelity",
		"internal/serve", "internal/sweep",
	} {
		if !contains(cfg.ResultPackages, "wivfi/"+rel) {
			t.Errorf("ResultPackages missing %s", rel)
		}
	}
	if !contains(cfg.NilsafePackages, "wivfi/internal/obs") ||
		!contains(cfg.NilsafePackages, "wivfi/internal/timeline") {
		t.Error("NilsafePackages must cover internal/obs and internal/timeline")
	}
	if !contains(cfg.PoolTypes, "wivfi/internal/sim.Pool") {
		t.Error("PoolTypes must cover sim.Pool (locksafe: no pool wait under a held lock)")
	}
}
