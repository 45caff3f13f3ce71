// Package expt regenerates every table and figure of the paper's evaluation
// (Section 7) on the simulated platform: Table 1 (datasets), Table 2 (V/F
// assignments), Fig. 2 (utilization profiles), Fig. 4 (VFI 1 vs VFI 2),
// Fig. 5 (bottleneck utilization), Fig. 6 (placement strategies), Fig. 7
// (execution-time breakdown), Fig. 8 (full-system EDP), the
// (k_intra, k_inter) sweep of Section 7.2 and the task-stealing case study
// of Section 4.3.
//
// A Suite caches the expensive per-application pipeline — profiling run,
// VFI design, system construction and the simulation of every system — so
// the experiment drivers and benchmarks can share results. Distinct
// benchmarks build concurrently (duplicate requests for the same benchmark
// coalesce onto one build), and within a pipeline the independent system
// simulations fan out over a bounded worker pool shared by the whole
// suite. All simulations are deterministic, so results are byte-identical
// whatever the parallelism level.
package expt

import (
	"fmt"
	"sync"
	"time"

	"wivfi/internal/apps"
	"wivfi/internal/noc"
	"wivfi/internal/obs"
	"wivfi/internal/platform"
	"wivfi/internal/sim"
	"wivfi/internal/vfi"
)

// Config bundles the platform and design-flow parameters.
type Config struct {
	Build sim.BuildConfig
	VFI   vfi.Options
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{Build: sim.DefaultBuildConfig(), VFI: vfi.DefaultOptions()}
}

// Pipeline holds everything computed for one benchmark: the design flow of
// Fig. 3 followed by the simulation of every system variant.
type Pipeline struct {
	App      *apps.App
	Workload *sim.Workload
	// Profile is the non-VFI characterization (step 1 of Fig. 3).
	Profile platform.Profile
	// Plan is the VFI design (clustering, V/F assignment, re-assignment).
	Plan vfi.Plan
	// Baseline is the NVFI mesh run every figure normalizes against.
	Baseline *sim.RunResult
	// VFI1Mesh / VFI2Mesh are the mesh systems before and after the
	// bottleneck V/F re-assignment.
	VFI1Mesh *sim.RunResult
	VFI2Mesh *sim.RunResult
	// WiNoC holds the VFI 2 WiNoC runs per placement strategy.
	WiNoC map[sim.Strategy]*sim.RunResult
	// BestStrategy is the strategy with the lower full-system EDP — the
	// per-application choice Section 6 prescribes.
	BestStrategy sim.Strategy
	// FromCache reports whether the profile and VFI plan were loaded from
	// the on-disk design cache rather than recomputed.
	FromCache bool

	// plans makes the pipeline's mesh mappings and WiNoC placements, once
	// each, for every system built from this design.
	plans *planStore
}

// BestWiNoC returns the WiNoC run under the chosen strategy.
func (p *Pipeline) BestWiNoC() *sim.RunResult { return p.WiNoC[p.BestStrategy] }

// buildHook, when non-nil, is invoked at the start of every pipeline build
// (after the suite lock is released). Test seam for the singleflight
// regression tests; never set outside tests.
var buildHook func(name string)

// BuildObserver receives progress callbacks from one pipeline build — the
// request-shaped entry point the serving layer streams from. Both fields
// are optional; set callbacks must be safe for concurrent use, since the
// five system simulations report from pool goroutines.
type BuildObserver struct {
	// Stage is called with state "start" and "done" around every pipeline
	// stage: design-flow, probe-sim, vfi-design and the five sim:* runs.
	// Stage names match the obs span names, so streamed events and trace
	// artifacts agree.
	Stage func(stage, state string)
	// Cache reports the design-cache classification of the build exactly
	// once, before any recomputation starts.
	Cache func(hit bool)
}

// stage fires the Stage callback on a non-nil observer.
func (ob *BuildObserver) stage(stage, state string) {
	if ob != nil && ob.Stage != nil {
		ob.Stage(stage, state)
	}
}

// cache fires the Cache callback on a non-nil observer.
func (ob *BuildObserver) cache(hit bool) {
	if ob != nil && ob.Cache != nil {
		ob.Cache(hit)
	}
}

// BuildPipeline runs the full flow for one benchmark, serially and without
// a disk cache. The Suite path adds coalescing, fan-out and caching.
func BuildPipeline(cfg Config, app *apps.App) (*Pipeline, error) {
	return buildPipeline(cfg, app, nil, "", nil, meshRoutes(cfg), nil)
}

// meshRoutes returns a builder of the chip's XY route table that builds it
// on first use only: every mesh system of a suite, or of one pipeline
// built without a suite, shares it.
func meshRoutes(cfg Config) func() (*noc.RouteTable, error) {
	return sync.OnceValues(func() (*noc.RouteTable, error) { return sim.MeshRoutes(cfg.Build) })
}

// BuildDesign runs the design flow alone — probe simulation, clustering
// and V/F assignment, or a load from the config-keyed disk cache — without
// simulating the derived systems. It is the entry point for callers (the
// sweep orchestrator) that compose their own system set from the returned
// profile and plan while still deduplicating design work across scenarios
// through the shared cache; on a miss it writes the design alone back,
// best-effort. The returned workload is the one the profile was
// characterized with; fromCache reports a design-cache hit. The probe
// and design run as jobs on pool; a caller that is itself running inside
// a pool job passes nil, so they run inline instead of waiting for a slot.
func BuildDesign(cfg Config, app *apps.App, pool *sim.Pool, cacheDir string) (*sim.Workload, platform.Profile, vfi.Plan, bool, error) {
	w, err := app.Workload(cfg.Build.Chip.NumCores())
	if err != nil {
		return nil, platform.Profile{}, vfi.Plan{}, false, fmt.Errorf("expt: %s workload: %w", app.Name, err)
	}
	prof, plan, _, cached, err := designFlow(cfg, app, w, pool, cacheDir, nil, nil)
	if err != nil {
		return nil, platform.Profile{}, vfi.Plan{}, false, err
	}
	if cacheDir != "" && !cached {
		saveDesign(cacheDir, cfg, app.Name, prof, plan, nil) // best effort
	}
	return w, prof, plan, cached, nil
}

// BuildPipelineObserved is the serving-layer entry point: one pipeline
// build for an arbitrary request Config, fanned out over the caller's
// shared pool, consulting the design cache at cacheDir ("" disables), with
// per-stage progress delivered through ob (nil for none).
func BuildPipelineObserved(cfg Config, app *apps.App, pool *sim.Pool, cacheDir string, ob *BuildObserver) (*Pipeline, error) {
	return buildPipeline(cfg, app, pool, cacheDir, nil, meshRoutes(cfg), ob)
}

// buildPipeline runs the design flow and then fans the five independent
// system simulations (baseline, VFI 1 mesh, VFI 2 mesh, two WiNoC
// placements) out over the pool. A nil pool runs everything inline. xy
// returns the chip's shared XY route table.
func buildPipeline(cfg Config, app *apps.App, pool *sim.Pool, cacheDir string, stats *cacheStats,
	xy func() (*noc.RouteTable, error), ob *BuildObserver) (*Pipeline, error) {
	if buildHook != nil {
		buildHook(app.Name)
	}
	// One orchestration track per benchmark; the leaf simulations below
	// trace onto per-pool-slot tracks instead.
	track := int32(0)
	if obs.Enabled() {
		track = obs.TrackFor("pipeline-" + app.Name)
	}
	pspan := obs.StartSpanOn(track, "pipeline", app.Name)
	defer pspan.End()
	w, err := app.Workload(cfg.Build.Chip.NumCores())
	if err != nil {
		return nil, fmt.Errorf("expt: %s workload: %w", app.Name, err)
	}

	// Steps 1-4 (Fig. 3): characterize on the plain non-VFI system, then
	// cluster, assign V/F and re-assign for bottlenecks — or reload both
	// artifacts from the config-keyed disk cache.
	ob.stage("design-flow", "start")
	dspan := obs.StartSpanOn(track, "design-flow", app.Name)
	prof, plan, stored, cached, err := designFlow(cfg, app, w, pool, cacheDir, stats, ob)
	dspan.End()
	ob.stage("design-flow", "done")
	if err != nil {
		return nil, err
	}

	pl := &Pipeline{
		App:       app,
		Workload:  w,
		Profile:   prof,
		Plan:      plan,
		WiNoC:     map[sim.Strategy]*sim.RunResult{},
		FromCache: cached,
	}

	// Mesh mappings and WiNoC placements are design-time decisions too:
	// the pipeline's plan store makes each once, seeded from the entry a
	// cached design came from, and writes the entry once the five systems
	// are built.
	var write func([]planRecord) error
	if cacheDir != "" {
		write = func(recs []planRecord) error { return saveDesign(cacheDir, cfg, app.Name, prof, plan, recs) }
	}
	plans := newPlanStore(cfg.Build, prof.Traffic, plan.VFI2, xy, write, stored)
	pl.plans = plans
	own := cfg.Build.SmallWorld

	// The five remaining simulations are mutually independent: they each
	// construct their own system from (cfg, prof, plan) and write to a
	// distinct destination, so they can run concurrently in any order
	// without changing the result.
	var wiMinHop, wiMaxWireless *sim.RunResult
	simJob := func(stage string, dst **sim.RunResult, build func() (*sim.System, error)) sim.Job {
		return sim.Job{Name: stage, Detail: app.Name, Run: func() error {
			ob.stage(stage, "start")
			defer ob.stage(stage, "done")
			sys, err := build()
			if err != nil {
				return err
			}
			*dst, err = sim.Run(w, sys)
			return err
		}}
	}
	err = pool.Run(
		simJob("sim:nvfi-mesh", &pl.Baseline, plans.nvfiMesh),
		simJob("sim:vfi1-mesh", &pl.VFI1Mesh, func() (*sim.System, error) { return plans.vfiMesh(plan.VFI1) }),
		simJob("sim:vfi2-mesh", &pl.VFI2Mesh, func() (*sim.System, error) { return plans.vfiMesh(plan.VFI2) }),
		simJob("sim:winoc-min-hop", &wiMinHop, func() (*sim.System, error) {
			return plans.winocSystem(sim.MinHop, own.KIntra, own.KInter)
		}),
		simJob("sim:winoc-max-wireless", &wiMaxWireless, func() (*sim.System, error) {
			return plans.winocSystem(sim.MaxWireless, own.KIntra, own.KInter)
		}),
	)
	if err != nil {
		return nil, fmt.Errorf("expt: %s: %w", app.Name, err)
	}
	plans.release(!cached)

	pl.WiNoC[sim.MinHop] = wiMinHop
	pl.WiNoC[sim.MaxWireless] = wiMaxWireless
	pl.BestStrategy = sim.MinHop
	if pl.WiNoC[sim.MaxWireless].Report.EDP() < pl.WiNoC[sim.MinHop].Report.EDP() {
		pl.BestStrategy = sim.MaxWireless
	}
	return pl, nil
}

// designFlow produces the profile and VFI plan, loading them and the
// entry's stored decisions from the disk cache when cacheDir is non-empty.
// It writes nothing: the caller writes a computed design back, best-effort,
// so a read-only or full disk degrades to recomputation, never to failure.
func designFlow(cfg Config, app *apps.App, w *sim.Workload, pool *sim.Pool, cacheDir string, stats *cacheStats, ob *BuildObserver) (platform.Profile, vfi.Plan, []planRecord, bool, error) {
	if cacheDir != "" {
		e, outcome := loadDesign(cacheDir, cfg, app.Name)
		stats.count(outcome)
		if outcome == cacheHit {
			ob.cache(true)
			return e.Profile, e.Plan, e.Plans, true, nil
		}
	}
	ob.cache(false)
	// Probe and design are sequential leaf jobs: each holds one slot, and
	// neither acquires another.
	var prof platform.Profile
	err := pool.Run(sim.Job{Name: "probe-sim", Detail: app.Name, Run: func() error {
		ob.stage("probe-sim", "start")
		defer ob.stage("probe-sim", "done")
		probeSys, err := sim.NVFIMesh(cfg.Build)
		if err != nil {
			return err
		}
		probeRes, err := sim.Run(w, probeSys)
		if err != nil {
			return fmt.Errorf("expt: %s profiling run: %w", app.Name, err)
		}
		prof = probeRes.Profile()
		return nil
	}})
	if err != nil {
		return platform.Profile{}, vfi.Plan{}, nil, false, err
	}
	var plan vfi.Plan
	err = pool.Run(sim.Job{Name: "vfi-design", Detail: app.Name, Run: func() error {
		ob.stage("vfi-design", "start")
		defer ob.stage("vfi-design", "done")
		var err error
		plan, err = vfi.Design(prof, cfg.VFI)
		return err
	}})
	if err != nil {
		return platform.Profile{}, vfi.Plan{}, nil, false, fmt.Errorf("expt: %s VFI design: %w", app.Name, err)
	}
	return prof, plan, nil, false, nil
}

// suiteEntry is the singleflight slot for one benchmark: the first caller
// runs the build under the entry's Once, later and concurrent callers for
// the same name wait on it, and callers for other names proceed
// independently.
type suiteEntry struct {
	once sync.Once
	pl   *Pipeline
	err  error
	pn   *sim.JobPanic // the build's panic, re-raised to every caller
}

// Suite lazily builds and caches one pipeline per benchmark. Distinct
// benchmarks build concurrently; duplicate requests coalesce. The
// zero-value-like suite from NewSuite is ready to use and safe for
// concurrent use by multiple goroutines.
type Suite struct {
	Config Config

	mu      sync.Mutex
	entries map[string]*suiteEntry

	pool     *sim.Pool
	cacheDir string
	stats    cacheStats
	xy       func() (*noc.RouteTable, error) // the chip's XY routes, built once
}

// Option configures a Suite beyond its platform Config.
type Option func(*Suite)

// WithParallelism bounds the suite-wide worker pool to n concurrent
// simulations (n <= 1 means fully serial). The default is GOMAXPROCS.
func WithParallelism(n int) Option {
	return func(s *Suite) { s.pool = sim.NewPool(n) }
}

// WithCacheDir enables the on-disk design cache rooted at dir: pipelines
// store their profiling run, VFI plan, mesh mappings and WiNoC placements
// keyed by a hash of the suite Config and benchmark name, so later suites
// with the same configuration skip the probe simulation, the clustering
// anneal and every mapping and WI-placement anneal. An empty dir disables caching (the default).
func WithCacheDir(dir string) Option {
	return func(s *Suite) { s.cacheDir = dir }
}

// NewSuite returns an empty suite for the configuration.
func NewSuite(cfg Config, opts ...Option) *Suite {
	s := &Suite{
		Config:  cfg,
		entries: map[string]*suiteEntry{},
		pool:    sim.DefaultPool(),
		xy:      meshRoutes(cfg),
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Parallelism reports the size of the suite's worker pool.
func (s *Suite) Parallelism() int { return s.pool.Size() }

// entry returns (creating if needed) the singleflight slot for a name. The
// suite lock protects only the map, never a build.
func (s *Suite) entry(name string) *suiteEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[name]
	if !ok {
		e = &suiteEntry{}
		s.entries[name] = e
	}
	return e
}

// Pipeline returns (building on first use) the pipeline for a benchmark.
// Concurrent calls for the same benchmark build it exactly once; calls for
// different benchmarks run concurrently. If the build panicked, every call
// re-panics with its *sim.JobPanic.
func (s *Suite) Pipeline(name string) (*Pipeline, error) {
	e := s.entry(name)
	e.once.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				e.pn = asJobPanic("pipeline:"+name, r)
			}
		}()
		app, err := apps.ByName(name)
		if err != nil {
			e.err = err
			return
		}
		start := time.Now() //lint:wallclock times the build for the stderr -v progress line only
		e.pl, e.err = buildPipeline(s.Config, app, s.pool, s.cacheDir, &s.stats, s.xy, nil)
		if obs.Verbose() && e.err == nil {
			elapsed := time.Since(start) //lint:wallclock elapsed build time goes to stderr progress, never into results
			obs.Logf("expt: pipeline %-6s built in %6.2fs (from cache: %v)",
				name, elapsed.Seconds(), e.pl.FromCache)
		}
	})
	if e.pn != nil {
		panic(e.pn)
	}
	return e.pl, e.err
}

// CacheStats snapshots the suite's design-cache outcomes so far.
func (s *Suite) CacheStats() CacheStats {
	return CacheStats{
		Hits:           s.stats.hits.Load(),
		Misses:         s.stats.misses.Load(),
		CorruptEvicted: s.stats.corrupt.Load(),
	}
}

// Prewarm builds the named pipelines (all of AppOrder when none are given)
// concurrently and returns the first error in argument order (or
// re-panics with the first build panic in that order). It is the
// fan-out entry point for the figure drivers and the benchmarks;
// afterwards every Pipeline call is a cache hit.
func (s *Suite) Prewarm(names ...string) error {
	if len(names) == 0 {
		names = AppOrder
	}
	errs := make([]error, len(names))
	panics := make([]any, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			_, errs[i] = s.Pipeline(name)
		}()
	}
	wg.Wait()
	for _, pn := range panics {
		if pn != nil {
			panic(pn)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// AppOrder is the benchmark ordering used by the figure drivers (Fig. 8's
// x-axis order).
var AppOrder = []string{"mm", "wc", "pca", "lr", "hist", "kmeans"}

// ForEach runs fn over every benchmark pipeline in AppOrder. The pipelines
// are prewarmed concurrently; fn itself runs serially in AppOrder so
// drivers emit rows deterministically.
func (s *Suite) ForEach(fn func(*Pipeline) error) error {
	if err := s.Prewarm(AppOrder...); err != nil {
		return err
	}
	for _, name := range AppOrder {
		pl, err := s.Pipeline(name)
		if err != nil {
			return err
		}
		if err := fn(pl); err != nil {
			return err
		}
	}
	return nil
}
