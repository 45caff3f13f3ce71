// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one workload per invocation:
//
//	perfbench -root DIR -bin DIR --workload reproduce|sweep|serve|mapreduce \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 it sets the workload up several times (the median is
// setup_s), then drives the workload's ops from closed-loop callers for S
// seconds and prints the end-to-end metrics. With --trace 1 it replays the
// workload's ops serially through the layers' public functions, recording
// spans and allocation deltas from this package only, and prints the
// per-layer table. Every op's output is checked against a committed golden
// or a reference computed in set-up; a mismatch counts as a failed op.
//
// The last line of stdout is one JSON object:
//
//	{"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value": v, "unit": u}}}
//
// Build and run it through run.sh, which compiles it and cmd/reproduce
// into .bench_build/ first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one benchmark workload: how to set it up and run its ops.
type workload struct {
	name string
	// setup builds a ready instance. It is called several times per
	// untraced run; each call must be independent, deterministic program
	// work (never compilation).
	setup func(e *env) (instance, error)
	// minOps is the least number of ops a run measures, even past its
	// seconds, so that the medians of a workload with slow ops rest on
	// more than a handful of them.
	minOps int
	// setupReps is how many times an untraced run sets the workload up;
	// the median is setup_s. A set-up of about a second needs few; a
	// short one needs more, so that its median spans seconds of host
	// time and not one noisy moment.
	setupReps int
}

// instance is a set-up workload.
type instance interface {
	// callers is the number of closed-loop callers (at most nproc).
	callers() int
	// op runs op i of the seeded schedule and checks its output. Safe for
	// concurrent use by callers() goroutines.
	op(i int) sample
	// serialOp is op i as the traced run's untraced baseline runs it: one
	// op at a time, with the parallelism a single caller gets.
	serialOp(i int) sample
	// replay re-runs op i serially through the layers' public functions,
	// recording spans on t, and returns the output digest it produced.
	replay(i int, t *tracer) (string, error)
	// setupSamples are the checked outputs of this instance's set-up.
	setupSamples() []sample
	close()
}

// Op classes. Every workload has a frequent, cheap class (hot) and a rare,
// expensive one (cold); set-up checks that are not ops use classSetup.
const (
	classHot   = "hot"
	classCold  = "cold"
	classSetup = "setup"
)

// sample is one checked op.
type sample struct {
	class  string
	ms     float64
	ok     bool
	digest string
	note   string // why the op failed
	rssKB  int64  // peak RSS of the op's child process, if it ran one
	busy   bool   // a cold op was in flight while this hot op ran
}

// env is what every workload gets: paths, the seed and the machine size.
type env struct {
	bin   string // directory holding the built reproduce binary
	work  string // private scratch directory, removed at exit
	seed  int64
	procs int
	gold  *goldens
}

var workloads = []workload{
	{name: "reproduce", setup: setupReproduce, minOps: 12, setupReps: 5},
	{name: "sweep", setup: setupSweep, setupReps: 5},
	{name: "serve", setup: setupServe, setupReps: 5},
	{name: "mapreduce", setup: setupMapReduce, setupReps: 15},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one printed metric value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		root    = flag.String("root", ".", "repository root")
		bin     = flag.String("bin", ".bench_build", "directory holding the built reproduce binary")
		name    = flag.String("workload", "", "workload: reproduce, sweep, serve or mapreduce")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 20, "measured seconds")
		traced  = flag.Int("trace", 0, "1 = traced per-layer run (spans go to <bin>/spans-<workload>-<seed>.json)")
		regen   = flag.String("write-goldens", "", "regenerate the golden files from the current program, recording this commit id")
	)
	flag.Parse()
	if *regen != "" {
		if err := writeGoldens(*root, *bin, *regen); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	out := os.Stdout //lint:stdout the metric table and the final JSON line are this command's output
	if err := run(out, *root, *bin, *name, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(out io.Writer, root, bin, name string, seed int64, seconds float64, traced bool) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	bin, err = filepath.Abs(bin)
	if err != nil {
		return err
	}
	gold, err := loadGoldens(filepath.Join(root, "perfbench", "golden"))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(bin, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	e := &env{bin: bin, work: work, seed: seed, procs: runtime.GOMAXPROCS(0), gold: gold}

	var res result
	if traced {
		res, err = runTraced(out, w, e, seconds, filepath.Join(bin, fmt.Sprintf("spans-%s-%d.json", name, seed)))
	} else {
		res, err = runUntraced(out, w, e, seconds, w.setupReps)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// printTable prints metrics sorted by name, one per line, before the JSON.
func printTable(out io.Writer, title string, ms map[string]metric, notes map[string]string) {
	fmt.Fprintln(out, title)
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		line := fmt.Sprintf("  %-28s %14.4f %-6s", n, ms[n].Value, ms[n].Unit)
		if note := notes[n]; note != "" {
			line += "  " + note
		}
		fmt.Fprintln(out, line)
	}
}
