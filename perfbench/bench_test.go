package main

import (
	"io"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// testEnv builds cmd/reproduce into a temporary directory and returns an
// env over the committed goldens.
func testEnv(t *testing.T) *env {
	t.Helper()
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", filepath.Join(bin, "reproduce"), "./cmd/reproduce")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building reproduce: %v\n%s", err, out)
	}
	gold, err := loadGoldens("golden")
	if err != nil {
		t.Fatal(err)
	}
	return &env{bin: bin, work: t.TempDir(), seed: 1, procs: runtime.GOMAXPROCS(0), gold: gold}
}

func TestTailOf(t *testing.T) {
	// Up to 2*tailSamples samples, the value with tailSamples beyond it
	// is at or below the median: no tail.
	for n := 0; n <= 2*tailSamples; n++ {
		if tl := tailOf(make([]float64, n)); tl.OK {
			t.Errorf("n=%d: got a tail, want none", n)
		}
	}
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending, so tailOf must sort
		}
		return out
	}
	cases := []struct {
		n         int
		wantValue float64
		wantPct   float64
	}{
		{21, 11, 100.0 * 11 / 21},
		{35, 25, 100.0 * 25 / 35},
		{100, 90, 90},
		{1000, 990, 99},
	}
	for _, c := range cases {
		tl := tailOf(xs(c.n))
		if !tl.OK || tl.Value != c.wantValue || tl.Pct != c.wantPct || tl.N != c.n {
			t.Errorf("n=%d: got %+v, want value %g at p%g", c.n, tl, c.wantValue, c.wantPct)
		}
	}
	for _, n := range []int{5, 12, 20} {
		if got := tailOf(xs(n)).reported(xs(n)); got != float64(n) {
			t.Errorf("no tail, n=%d: reported %g, want the maximum %d", n, got, n)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %g", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even median %g", got)
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that every op passed its output check.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take about a minute")
	}
	e := testEnv(t)
	for _, w := range workloads {
		w.minOps = 1
		res, err := runUntraced(io.Discard, w, e, 0.05, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s untraced: %+v", w.name, res)
		}
		for _, m := range []string{"ops_per_s", "p50_ms", "tail_ms", "cpu_ms_per_op", "setup_s",
			"peak_rss_mb", "hot_p50_ms", "hot_tail_ms", "cold_p50_ms"} {
			if _, ok := res.Metrics[m]; !ok {
				t.Errorf("%s: missing metric %s", w.name, m)
			}
		}
		tr, err := runTraced(io.Discard, w, e, 0.05, "")
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if !tr.Correct || tr.Failed != 0 || len(tr.Metrics) != len(layerMetrics) {
			t.Errorf("%s traced: %+v", w.name, tr)
		}
	}
}

// TestGoldenMismatchCounts corrupts goldens and checks that every
// mismatching op is counted as attempted and failed, never dropped.
func TestGoldenMismatchCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the reproduce, sweep and serve set-ups")
	}
	e := testEnv(t)
	bad := *e.gold
	bad.Sweep = map[string]string{}
	for k := range e.gold.Sweep {
		bad.Sweep[k] = "corrupt"
	}
	bad.Serve = map[string]string{}
	for k, v := range e.gold.Serve {
		bad.Serve[k] = v
	}
	bad.Serve["mm"] = "corrupt"
	bad.Reproduce = "corrupt"
	e.gold = &bad

	rep, _ := findWorkload("reproduce")
	rep.minOps = 1
	res, err := runUntraced(io.Discard, rep, e, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted || res.Attempted != 2 {
		t.Errorf("reproduce with a corrupt golden: %+v, want its set-up and its op failed", res)
	}

	sw, _ := findWorkload("sweep")
	res, err = runUntraced(io.Discard, sw, e, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted || res.Attempted < 2 {
		t.Errorf("sweep with corrupt goldens: %+v, want every op failed", res)
	}

	sv, _ := findWorkload("serve")
	res, err = runUntraced(io.Discard, sv, e, 0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	// One corrupt config per set-up; the hot ops for it still match the
	// set-up's own response, so exactly the two set-up checks fail.
	if res.Correct || res.Failed != 2 || res.Attempted <= 2 {
		t.Errorf("serve with one corrupt golden: %+v, want 2 failed", res)
	}
}

// TestServeColdOp runs one scheduled cold request on a set-up serve
// instance and checks that it is served, checked and counted as cold.
func TestServeColdOp(t *testing.T) {
	if testing.Short() {
		t.Skip("runs cold pipelines")
	}
	e := testEnv(t)
	inst, err := setupServe(e)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	s := inst.(*serveInst)
	i := serveColdEvery / 2
	if _, class := s.schedule(i); class != classCold {
		t.Fatalf("op %d is %s, want cold", i, class)
	}
	smp := s.op(i)
	if !smp.ok || smp.class != classCold {
		t.Fatalf("cold op: %+v", smp)
	}
	if est, upper := s.coldCPUShare(1, time.Hour); est <= 0 || upper <= 0 {
		t.Errorf("cold CPU share estimate %g, upper bound %g: want both > 0", est, upper)
	}
	if hot := s.op(i + 1); !hot.ok || hot.class != classHot {
		t.Errorf("hot op after the cold one: %+v", hot)
	}
}
