package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"wivfi/internal/apps"
	"wivfi/internal/data"
	"wivfi/internal/expt"
	"wivfi/internal/governor"
	"wivfi/internal/mapreduce"
	"wivfi/internal/platform"
	"wivfi/internal/serve"
	"wivfi/internal/sim"
)

// referenceApp is the benchmark the reference pass designs on the paper's
// 8x8 platform.
const referenceApp = "wc"

// referencePass gives every per-layer metric a value: a layer the
// workload's ops never call (calls/op 0 in the table) is timed once here,
// on fixed inputs — the paper's 8x8 platform for referenceApp, a 16x16
// mesh for route building, a small word count for the engine — so its
// per-call cost is still on record. Groups of layers the replay already
// measured are skipped; the reference design itself and
// expt.pipeline_speedup, which no op measures, always run.
func referencePass(e *env, op, ref *tracer) error {
	need := func(layers ...string) bool {
		for _, l := range layers {
			if !op.has(l) {
				return true
			}
		}
		return false
	}
	cfg := expt.DefaultConfig()
	app, err := apps.ByName(referenceApp)
	if err != nil {
		return err
	}
	cacheDir := filepath.Join(e.work, "reference-cache")
	w, err := app.Workload(cfg.Build.Chip.NumCores())
	if err != nil {
		return err
	}
	prof, plan, err := design(ref, cfg, w)
	if err != nil {
		return err
	}
	if _, _, _, _, err := expt.BuildDesign(cfg, app, nil, cacheDir); err != nil { // fills the cache
		return err
	}
	if _, _, _, err := designHit(ref, cfg, app, cacheDir); err != nil {
		return err
	}
	if need("place.min_hop", "place.max_wireless", "place.map_threads", "sim.run") {
		if _, err := pipelineRuns(ref, cfg.Build, w, prof, plan); err != nil {
			return err
		}
	}
	if need("noc.analytic", "noc.des", "sim.run_governed", "noc.build_routes") {
		sys, err := vfiMesh(ref, cfg.Build, plan.VFI2, prof.Traffic)
		if err != nil {
			return err
		}
		if _, _, err := fidelityProbe(ref, cfg, prof.Traffic, sys); err != nil {
			return err
		}
		if _, _, err := governed(ref, cfg, w, plan, sys, governor.Util, 0); err != nil {
			return err
		}
		big := cfg.Build
		big.Chip = platform.DefaultChip()
		big.Chip.Rows, big.Chip.Cols = 16, 16
		if _, err := meshRoutes(ref, big); err != nil {
			return err
		}
	}
	if err := pipelineSpeedup(ref, e, cfg, app, cacheDir); err != nil {
		return err
	}
	if need("expt.render") {
		suite := expt.NewSuite(cfg, expt.WithParallelism(e.procs), expt.WithCacheDir(cacheDir))
		if err := suite.Prewarm(expt.AppOrder...); err != nil {
			return err
		}
		if err := ref.call("expt.render", func() error { _, err := renderAll(suite, nil); return err }); err != nil {
			return err
		}
	}
	if need("serve.handler_hot", "serve.metrics") {
		if err := serveReference(ref, e, cacheDir); err != nil {
			return err
		}
	}
	if need("mapreduce.run") {
		m := &mrInst{e: e, text: data.Text(e.seed, mrLines/4, mrWordsPerLine, mrVocabulary)}
		var st mapreduce.Stats
		if err := ref.call("mapreduce.run", func() (err error) {
			_, st, err = mapreduce.Run(m.wordCount(), m.text)
			return err
		}); err != nil {
			return err
		}
		addMRStats(ref, st)
	}
	return nil
}

// pipelineSpeedup builds one pipeline with expt.BuildPipelineObserved over
// a pool of nproc slots (warm design cache) and records the serial sum of
// its stages against the wall time (expt.pipeline_speedup).
func pipelineSpeedup(t *tracer, e *env, cfg expt.Config, app *apps.App, cacheDir string) error {
	var (
		mu     sync.Mutex
		starts = map[string]time.Time{}
		serial time.Duration
	)
	ob := &expt.BuildObserver{Stage: func(stage, state string) {
		if stage != "design-flow" && !strings.HasPrefix(stage, "sim:") {
			return // probe-sim and vfi-design nest inside design-flow
		}
		mu.Lock()
		defer mu.Unlock()
		if state == "start" {
			starts[stage] = time.Now()
		} else {
			serial += time.Since(starts[stage])
		}
	}}
	err := t.call("expt.pipeline", func() error {
		_, err := expt.BuildPipelineObserved(cfg, app, sim.NewPool(e.procs), cacheDir, ob)
		return err
	})
	t.add("expt.pipeline", "serial_s", serial.Seconds())
	return err
}

// serveReference warms one config on a fresh server sharing the reference
// design cache, then times hot requests on a recorder.
func serveReference(t *tracer, e *env, cacheDir string) error {
	srv := serve.NewServer(serve.Options{Parallelism: e.procs, CacheDir: cacheDir})
	s := &serveInst{srv: srv}
	path := designURL(serve.Request{App: referenceApp})
	m0 := serve.ParseMetrics(string(s.handler("/metrics")))
	want := digest(s.handler(path))
	const n = 256
	err := t.calls("serve.handler_hot", n, func() error {
		for k := 0; k < n; k++ {
			if digest(s.handler(path)) != want {
				return fmt.Errorf("serve reference: hot response differs")
			}
		}
		return nil
	})
	m := serve.ParseMetrics(string(s.handler("/metrics")))
	l := t.layer("serve.metrics")
	l.calls = 1
	l.sums["requests"] = m.CounterDelta(m0, serve.MetricRequests)
	l.sums["result_hits"] = m.CounterDelta(m0, serve.MetricResultHits)
	l.sums["dedup_shared"] = m.CounterDelta(m0, serve.MetricDedupShared)
	return err
}
