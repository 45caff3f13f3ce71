package expt

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDistinctBenchmarksBuildConcurrently is the singleflight regression
// test for the old suite-wide lock: two goroutines requesting different
// benchmarks must both reach their build before either finishes. Each build
// parks inside the test hook until both have arrived; under a suite-wide
// lock the second build can never start and the rendezvous times out.
func TestDistinctBenchmarksBuildConcurrently(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two pipelines")
	}
	var entered sync.WaitGroup
	entered.Add(2)
	release := make(chan struct{})
	buildHook = func(string) {
		entered.Done()
		<-release
	}
	defer func() { buildHook = nil }()

	s := NewSuite(DefaultConfig(), WithParallelism(2))
	names := []string{"mm", "wc"}
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			_, errs[i] = s.Pipeline(name)
		}(i, name)
	}

	both := make(chan struct{})
	go func() { entered.Wait(); close(both) }()
	select {
	case <-both:
	case <-time.After(30 * time.Second):
		close(release)
		t.Fatal("builds serialized: second benchmark never started while the first was in flight")
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("%s: %v", names[i], err)
		}
	}
}

// TestSameBenchmarkBuildsExactlyOnce: concurrent requests for one benchmark
// coalesce onto a single build and all callers get the same pipeline.
func TestSameBenchmarkBuildsExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a pipeline")
	}
	var builds atomic.Int64
	buildHook = func(string) { builds.Add(1) }
	defer func() { buildHook = nil }()

	s := NewSuite(DefaultConfig())
	const callers = 8
	ptrs := make([]*Pipeline, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ptrs[i], errs[i] = s.Pipeline("mm")
		}(i)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("%d builds for one benchmark, want 1", n)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if ptrs[i] != ptrs[0] {
			t.Errorf("caller %d got a different pipeline instance", i)
		}
	}
}

// TestParallelSuiteMatchesSerial is the determinism guarantee behind -j:
// a suite hammered by concurrent callers over a 4-wide pool must render
// byte-identical tables and figures to the package's shared (serially
// consumed) suite. It doubles as the -race stress test for the parallel
// suite path.
func TestParallelSuiteMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a second full suite")
	}
	ref := sharedSuite(t)

	par := NewSuite(DefaultConfig(), WithParallelism(4))
	const rounds = 4
	ptrs := make([]*Pipeline, rounds*len(AppOrder))
	errs := make([]error, rounds*len(AppOrder))
	var wg sync.WaitGroup
	for g := 0; g < rounds; g++ {
		for i, name := range AppOrder {
			wg.Add(1)
			go func(slot int, name string) {
				defer wg.Done()
				ptrs[slot], errs[slot] = par.Pipeline(name)
			}(g*len(AppOrder)+i, name)
		}
	}
	wg.Wait()
	for slot, err := range errs {
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
	}
	for g := 1; g < rounds; g++ {
		for i := range AppOrder {
			if ptrs[g*len(AppOrder)+i] != ptrs[i] {
				t.Errorf("%s: round %d got a different pipeline instance", AppOrder[i], g)
			}
		}
	}

	type render struct {
		name string
		from func(s *Suite) (string, error)
	}
	renders := []render{
		{"Table2", func(s *Suite) (string, error) {
			rows, err := s.Table2()
			return FormatTable2(rows), err
		}},
		{"Fig7", func(s *Suite) (string, error) {
			rows, err := s.Fig7()
			return FormatFig7(rows), err
		}},
		{"Fig8", func(s *Suite) (string, error) {
			rows, err := s.Fig8()
			return FormatFig8(rows), err
		}},
	}
	for _, r := range renders {
		want, err := r.from(ref)
		if err != nil {
			t.Fatalf("%s (serial): %v", r.name, err)
		}
		got, err := r.from(par)
		if err != nil {
			t.Fatalf("%s (parallel): %v", r.name, err)
		}
		if got != want {
			t.Errorf("%s differs between serial and parallel suites:\n--- serial ---\n%s--- parallel ---\n%s", r.name, want, got)
		}
	}
}

// oneSlotBound is far above a serial full regeneration, even under -race;
// a one-slot run still going after it is deadlocked, not slow.
const oneSlotBound = 2 * time.Minute

// TestOneSlotSnapshot drives every figure and study that acquires the
// suite pool through a pool of one slot, all at once through RunSections.
// There, a job that acquires the same pool again waits forever for the
// slot it holds, so finishing at all proves no acquiring path nests —
// including the func-valued sim jobs of buildPipeline and the
// WI-failure study's jobs, which no static call walk can follow, and the
// section drivers RunSections starts, which must be pool callers, not
// jobs.
func TestOneSlotSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every figure serially")
	}
	done := make(chan error, 1)
	go func() {
		_, err := CollectSnapshot(NewSuite(DefaultConfig(), WithParallelism(1)))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(oneSlotBound):
		buf := make([]byte, 1<<20)
		t.Logf("goroutines:\n%s", buf[:runtime.Stack(buf, true)])
		t.Fatalf("CollectSnapshot on a one-slot pool still running after %v: nested acquisition of the same sim.Pool?", oneSlotBound)
	}
}
