package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: wivfi/internal/noc
BenchmarkDESEventEngine-8       	     200	   5838468 ns/op	       0 B/op	       0 allocs/op
BenchmarkDESReferenceEngine-8   	      36	  32935141 ns/op	  688320 B/op	   16452 allocs/op
BenchmarkDESEventEngineMesh-8   	     224	   5354649 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	wivfi/internal/noc	5.858s
`

// lintSample is a single non-DES benchmark line, as the analyzer suite
// reports it.
const lintSample = `goos: linux
pkg: wivfi/internal/lint
BenchmarkSuiteRun-8 	       1	3164379494 ns/op	798999232 B/op	 9280609 allocs/op
PASS
ok  	wivfi/internal/lint	3.173s
`

// desGates holds the DES gate kinds: two alloc ceilings and a ratio floor
// under the sample's 5.64x.
const desGates = `{"schema": 1, "gates": [
	{"name": "DESEventEngine", "max_allocs_per_op": 0, "max_bytes_per_op": 0},
	{"name": "DESEventEngineMesh", "max_allocs_per_op": 0, "max_bytes_per_op": 0},
	{"name": "DESReferenceEngine", "over": "DESEventEngine", "min_ratio": 4.3}]}`

func mustParse(t *testing.T, text string) []Bench {
	t.Helper()
	snap, err := parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return snap.Benchmarks
}

// failures gates bs with the gates file text and returns the failing
// lines and all lines.
func failures(t *testing.T, gates string, bs []Bench) (fails, lines []string) {
	t.Helper()
	gs, err := readGates(strings.NewReader(gates))
	if err != nil {
		t.Fatal(err)
	}
	lines, failed := check(gs, bs)
	if len(lines) != len(gs) {
		t.Fatalf("%d lines for %d gates: %q", len(lines), len(gs), lines)
	}
	for _, line := range lines {
		if strings.HasPrefix(line, "FAIL ") {
			fails = append(fails, line)
		}
	}
	if len(fails) != failed {
		t.Fatalf("failed = %d, but %d FAIL lines: %q", failed, len(fails), lines)
	}
	return fails, lines
}

func TestParse(t *testing.T) {
	snap, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Schema != snapshotSchema || len(snap.Benchmarks) != 3 {
		t.Fatalf("schema %d, %d benchmarks; want %d, 3", snap.Schema, len(snap.Benchmarks), snapshotSchema)
	}
	ev, ref := snap.Benchmarks[0], snap.Benchmarks[2]
	if ev.Name != "DESEventEngine" || ev.NsPerOp != 5838468 || ev.BytesPerOp != 0 || ev.AllocsPerOp != 0 || ev.Iterations != 200 {
		t.Fatalf("bad event bench: %+v", ev)
	}
	if ref.Name != "DESReferenceEngine" || ref.AllocsPerOp != 16452 {
		t.Fatalf("bad reference bench: %+v", ref)
	}
}

func TestGateGreen(t *testing.T) {
	fails, lines := failures(t, desGates, mustParse(t, sample))
	if len(fails) != 0 {
		t.Fatalf("unexpected failures: %q", fails)
	}
	if want := "ok   DESReferenceEngine/DESEventEngine 5.64x, floor 4.30x"; lines[2] != want {
		t.Fatalf("ratio line %q, want %q", lines[2], want)
	}
}

func TestGateAllocRegression(t *testing.T) {
	for _, bump := range []func(*Bench){
		func(b *Bench) { b.AllocsPerOp = 7 },
		func(b *Bench) { b.BytesPerOp = 64 },
	} {
		bs := mustParse(t, sample)
		bump(&bs[0])
		fails, _ := failures(t, desGates, bs)
		if len(fails) != 1 || !strings.Contains(fails[0], "DESEventEngine") || !strings.Contains(fails[0], "ceiling 0 allocs/op 0 B/op") {
			t.Fatalf("want one alloc failure, got %q", fails)
		}
	}
}

func TestGateSpeedupRegression(t *testing.T) {
	bs := mustParse(t, sample)
	ratio := bs[2].NsPerOp / bs[0].NsPerOp
	floor := func(min float64) string {
		return fmt.Sprintf(`{"schema":1,"gates":[{"name":"DESReferenceEngine","over":"DESEventEngine","min_ratio":%v}]}`, min)
	}
	fails, _ := failures(t, floor(ratio*2), bs)
	if len(fails) != 1 || !strings.Contains(fails[0], "floor 11.28x") {
		t.Fatalf("want one ratio failure, got %q", fails)
	}
	// The floor is inclusive: the measured ratio itself passes.
	for _, min := range []float64{ratio, ratio / 2} {
		if fails, _ := failures(t, floor(min), bs); len(fails) != 0 {
			t.Fatalf("floor %v should pass, got %q", min, fails)
		}
	}
}

func TestGateMissingBench(t *testing.T) {
	bs := []Bench{{Name: "DESEventEngine", NsPerOp: 1}}
	fails, _ := failures(t, desGates, bs)
	if len(fails) != 2 || !strings.Contains(fails[0], "DESEventEngineMesh missing") || !strings.Contains(fails[1], "DESReferenceEngine missing") {
		t.Fatalf("want two missing-benchmark failures, got %q", fails)
	}
	// The benchmark a ratio divides by must be present too.
	fails, _ = failures(t, `{"schema":1,"gates":[{"name":"DESEventEngine","over":"Ghost","min_ratio":1}]}`, bs)
	if len(fails) != 1 || !strings.Contains(fails[0], "ratio over Ghost missing") {
		t.Fatalf("want one missing-divisor failure, got %q", fails)
	}
}

func TestGateBudget(t *testing.T) {
	bs := mustParse(t, lintSample)
	budget := func(name, ns string) string {
		return `{"schema":1,"gates":[{"name":"` + name + `","max_ns_per_op":` + ns + `}]}`
	}
	if fails, _ := failures(t, budget("SuiteRun", "60000000000"), bs); len(fails) != 0 {
		t.Fatalf("unexpected failures: %q", fails)
	}
	fails, _ := failures(t, budget("SuiteRun", "1000000000"), bs)
	if len(fails) != 1 || !strings.Contains(fails[0], "SuiteRun 3.164379494s/op, budget 1s") {
		t.Fatalf("want one budget failure, got %q", fails)
	}
	// A budgeted benchmark that never ran must fail, not silently pass.
	fails, _ = failures(t, budget("Ghost", "1000000000"), bs)
	if len(fails) != 1 || !strings.Contains(fails[0], "Ghost missing") {
		t.Fatalf("want one missing-benchmark failure, got %q", fails)
	}
}

// TestGateDuplicateResult: two packages reporting one name fail every
// gate that reads it, instead of gating whichever line came first.
func TestGateDuplicateResult(t *testing.T) {
	bs := mustParse(t, sample+"pkg: wivfi/other\nBenchmarkDESEventEngine-8 100 1 ns/op 0 B/op 0 allocs/op\n")
	fails, _ := failures(t, desGates, bs)
	if len(fails) != 2 || !strings.Contains(fails[0], "DESEventEngine has 2 result lines") ||
		!strings.Contains(fails[1], "ratio over DESEventEngine has 2 result lines") {
		t.Fatalf("want the alloc and ratio gates to fail on the duplicate, got %q", fails)
	}
}

func TestReadGatesRejects(t *testing.T) {
	const ok = `{"name":"A","max_ns_per_op":1}`
	for _, tc := range []struct{ name, file, want string }{
		{"not json", `{"schema":1,`, "unexpected EOF"},
		{"unknown top field", `{"schema":1,"gates":[` + ok + `],"extra":1}`, `unknown field "extra"`},
		{"unknown gate field", `{"schema":1,"gates":[{"name":"A","max_ns":1}]}`, `unknown field "max_ns"`},
		{"wrong schema", `{"schema":2,"gates":[` + ok + `]}`, "schema 2, want 1"},
		{"no schema", `{"gates":[` + ok + `]}`, "schema 0, want 1"},
		{"no gates", `{"schema":1,"gates":[]}`, "no gates"},
		{"second gate", `{"schema":1,"gates":[` + ok + `,` + ok + `]}`, "second gate"},
		{"zero kinds", `{"schema":1,"gates":[{"name":"A","why":"x"}]}`, "0 gate kinds"},
		{"alloc and budget", `{"schema":1,"gates":[{"name":"A","max_allocs_per_op":0,"max_bytes_per_op":0,"max_ns_per_op":1}]}`, "2 gate kinds"},
		{"ratio and budget", `{"schema":1,"gates":[{"name":"A","over":"B","min_ratio":1,"max_ns_per_op":1}]}`, "2 gate kinds"},
		{"half alloc ceiling", `{"schema":1,"gates":[{"name":"A","max_allocs_per_op":0}]}`, "alloc ceiling needs"},
		{"negative ceiling", `{"schema":1,"gates":[{"name":"A","max_allocs_per_op":0,"max_bytes_per_op":-1}]}`, "alloc ceiling needs"},
		{"fractional ceiling", `{"schema":1,"gates":[{"name":"A","max_allocs_per_op":0.5,"max_bytes_per_op":0}]}`, "cannot unmarshal"},
		{"zero floor", `{"schema":1,"gates":[{"name":"A","over":"B","min_ratio":0}]}`, "positive min_ratio"},
		{"negative floor", `{"schema":1,"gates":[{"name":"A","over":"B","min_ratio":-1}]}`, "positive min_ratio"},
		{"floor without over", `{"schema":1,"gates":[{"name":"A","min_ratio":1}]}`, "needs over"},
		{"over without floor", `{"schema":1,"gates":[{"name":"A","over":"B"}]}`, "needs over"},
		{"zero budget", `{"schema":1,"gates":[{"name":"A","max_ns_per_op":0}]}`, "non-positive max_ns_per_op"},
		{"negative budget", `{"schema":1,"gates":[{"name":"A","max_ns_per_op":-5}]}`, "non-positive max_ns_per_op"},
	} {
		_, err := readGates(strings.NewReader(tc.file))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
}

// TestCommittedGatesNameBenchmarks: every benchmark the committed gates
// file names is defined in some _test.go of the module, so renaming one
// fails here and not only in CI.
func TestCommittedGatesNameBenchmarks(t *testing.T) {
	f, err := os.Open("../../testdata/bench-gates.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gs, err := readGates(f)
	if err != nil {
		t.Fatal(err)
	}
	decl := regexp.MustCompile(`(?m)^func Benchmark(\w+)\(b \*testing\.B\)`)
	defined := map[string]bool{}
	err = filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "../.." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gs {
		for _, name := range []string{g.Name, g.Over} {
			if name != "" && !defined[name] {
				t.Errorf("gate %q names Benchmark%s, which no _test.go defines", g.Name, name)
			}
		}
	}
}

func TestParseLineRejectsGarbage(t *testing.T) {
	for _, line := range []string{
		"PASS",
		"ok  	wivfi/internal/noc	5.858s",
		"goos: linux",
		"BenchmarkX-8 notanumber 5 ns/op",
		"BenchmarkX-8 10 5 bogons",
	} {
		if _, ok := parseLine(line); ok {
			t.Fatalf("parseLine accepted %q", line)
		}
	}
	b, ok := parseLine("BenchmarkY 10 5 ns/op")
	if !ok || b.Name != "Y" {
		t.Fatalf("plain line without GOMAXPROCS suffix: %+v ok=%v", b, ok)
	}
}
