package lint

import "testing"

// BenchmarkSuiteRun times a full run of the six per-package analyzers
// (determinism, nilsafe, stdoutpure, countersafe, locksafe, leaksafe) over
// the entire repository — module discovery, loading, type-checking and
// every analyzer, exactly the work `wivfi-lint ./...` does. The stdlib is
// type-checked once per process, so iterations after the first reuse it. CI runs it once per push and gates the wall clock with
// benchgate -budget against the committed budget in
// testdata/lint-bench-budget, so analyzer additions that blow up lint
// latency fail loudly instead of silently taxing every future commit.
func BenchmarkSuiteRun(b *testing.B) {
	mod, err := FindModule(".")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		findings, err := Lint(mod.Root, []string{"./..."})
		if err != nil {
			b.Fatal(err)
		}
		if len(findings) != 0 {
			b.Fatalf("repo not lint-clean: %d findings", len(findings))
		}
	}
}
