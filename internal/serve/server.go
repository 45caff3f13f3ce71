// Package serve is the experiment-serving daemon behind cmd/wivfid: an
// HTTP/JSON front end that turns "design my chip for this benchmark"
// requests into runs of the expt design pipeline, with admission control,
// per-config deduplication and an in-memory result store layered over the
// on-disk design cache.
//
// The observability plane is the headline: every request is tagged with a
// deterministic id, its progress streams live as NDJSON or SSE events
// derived from the same stage names the trace artifacts use, and the
// service exports counters, an in-flight gauge and a log-bucketed request
// latency histogram on the obs debug mux (/metrics, Prometheus text
// format) alongside pprof and expvar.
//
// Result documents are pure functions of the request configuration:
// deduplicated, memoized and cold executions of one config all return
// byte-identical bodies. Per-request identity (id, cache classification,
// timings) travels in headers and stream events, never in the body.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wivfi/internal/apps"
	"wivfi/internal/expt"
	"wivfi/internal/governor"
	"wivfi/internal/obs"
	"wivfi/internal/sim"
)

// Options configures a Server. The zero value is ready to use: paper
// platform config, GOMAXPROCS parallelism, a 64-request admission bound
// and no on-disk design cache.
type Options struct {
	// MaxInFlight bounds concurrently admitted requests; excess requests
	// are rejected with 503 + Retry-After rather than queued, so load
	// sheds at the edge instead of stacking goroutines.
	MaxInFlight int
	// Parallelism sizes the shared simulation pool all leader executions
	// fan their system simulations over.
	Parallelism int
	// CacheDir roots the on-disk design cache ("" disables): leaders with
	// a warm entry skip the probe simulation and the clustering anneal.
	CacheDir string
	// Base is the platform configuration requests override; the zero
	// value means the paper's DefaultConfig.
	Base expt.Config
	// MaxSweepScenarios bounds how many scenarios one /v1/sweep request
	// may expand to (default DefaultMaxSweepScenarios); larger studies
	// belong on the wivfisweep CLI with a journal.
	MaxSweepScenarios int
}

// Server handles design requests. Create with NewServer; safe for
// concurrent use.
type Server struct {
	maxInFlight       int
	maxSweepScenarios int
	parallelism       int
	cacheDir          string
	base              expt.Config
	pool              *sim.Pool

	mu          sync.Mutex
	inflight    int
	draining    bool
	idleWaiters []chan struct{}
	flights     map[string]*flight

	reqSeq atomic.Int64

	// execHook, when non-nil, fires once per leader execution (test seam
	// for the singleflight tests; never set outside tests).
	execHook func(key string)
}

// NewServer builds a server from opts.
func NewServer(opts Options) *Server {
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = 64
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	if opts.Base.Build.Chip.NumCores() == 0 {
		opts.Base = expt.DefaultConfig()
	}
	if opts.MaxSweepScenarios <= 0 {
		opts.MaxSweepScenarios = DefaultMaxSweepScenarios
	}
	return &Server{
		maxInFlight:       opts.MaxInFlight,
		maxSweepScenarios: opts.MaxSweepScenarios,
		parallelism:       opts.Parallelism,
		cacheDir:          opts.CacheDir,
		base:              opts.Base,
		pool:              sim.NewPool(opts.Parallelism),
		flights:           map[string]*flight{},
	}
}

// Base returns the server's platform configuration.
func (s *Server) Base() expt.Config { return s.base }

// Handler mounts the service routes on the obs debug mux, so /metrics,
// expvar and pprof ride along with the API on one listener.
func (s *Server) Handler() http.Handler {
	mux := obs.DebugMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/apps", s.handleApps)
	mux.HandleFunc("/v1/design", s.handleDesign)
	mux.HandleFunc("/v1/sweep", s.handleSweep)
	return mux
}

// Drain stops admitting new requests and waits for in-flight ones to
// finish (or ctx to expire). Safe to call more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	ch := make(chan struct{})
	if s.inflight == 0 {
		close(ch)
	} else {
		s.idleWaiters = append(s.idleWaiters, ch)
	}
	s.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// enter admits one request, or reports false when draining or at the
// MaxInFlight bound.
func (s *Server) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.inflight >= s.maxInFlight {
		return false
	}
	s.inflight++
	inFlightGauge.Add(1)
	return true
}

// leave releases one admission slot and wakes drainers on idle.
func (s *Server) leave() {
	s.mu.Lock()
	s.inflight--
	inFlightGauge.Add(-1)
	if s.inflight == 0 {
		for _, ch := range s.idleWaiters {
			close(ch)
		}
		s.idleWaiters = nil
	}
	s.mu.Unlock()
}

// flight is one execution of one config key, doubling as the singleflight
// slot while running and as the in-memory result store entry afterwards.
// Failed flights are evicted from the server's map before done closes, so
// retries re-execute instead of replaying the error forever.
type flight struct {
	key      string
	leaderID string
	start    time.Time
	stages   *stageTimes
	done     chan struct{}

	mu         sync.Mutex
	subs       []*emitter
	cacheKnown bool
	cacheHit   bool

	// finishOnce makes sealing idempotent, so the panic-recovery path in
	// execute can guarantee eviction without double-closing done.
	finishOnce sync.Once

	// result/raw/err are written once before done closes, read after.
	result *Result
	raw    []byte
	err    error
}

func newFlight(key, leaderID string) *flight {
	return &flight{
		key:      key,
		leaderID: leaderID,
		start:    time.Now(), //lint:wallclock anchors stage timings for stream events and stage summaries, never results
		stages:   newStageTimes(),
		done:     make(chan struct{}),
	}
}

// subscribe attaches a streaming request's emitter to the flight's
// progress fan-out. Events published before subscription are not
// replayed.
func (f *flight) subscribe(em *emitter) {
	f.mu.Lock()
	f.subs = append(f.subs, em)
	f.mu.Unlock()
}

// publish fans one progress event to every subscribed emitter, which
// stamps its own request identity onto it.
func (f *flight) publish(ev Event) {
	f.mu.Lock()
	subs := f.subs
	f.mu.Unlock()
	for _, em := range subs {
		em.emit(ev)
	}
}

// setCache records the design-cache classification of the execution.
func (f *flight) setCache(hit bool) {
	f.mu.Lock()
	f.cacheKnown = true
	f.cacheHit = hit
	f.mu.Unlock()
}

// cacheLabel names the leader's cache outcome for the X-Wivfi-Cache
// header and the result event.
func (f *flight) cacheLabel() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case !f.cacheKnown:
		return "none"
	case f.cacheHit:
		return "design"
	default:
		return "miss"
	}
}

// handleHealthz reports liveness and the admission state.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	doc := struct {
		Status   string `json:"status"`
		InFlight int    `json:"in_flight"`
		Draining bool   `json:"draining"`
	}{"ok", s.inflight, s.draining}
	if s.draining {
		doc.Status = "draining"
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, doc)
}

// handleApps lists the designable benchmarks.
func (s *Server) handleApps(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Apps []string `json:"apps"`
	}{apps.Names()})
}

// handleDesign is the core route: validate, admit, deduplicate, execute
// (or attach, or answer from the result store) and respond — as one JSON
// document or as a live event stream.
func (s *Server) handleDesign(w http.ResponseWriter, r *http.Request) {
	var req Request
	switch r.Method {
	case http.MethodGet:
		var err error
		if req, err = parseQuery(r.URL.Query()); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	case http.MethodPost:
		var err error
		if req, err = decodeRequest(r.Body); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	default:
		w.Header().Set("Allow", "GET, POST")
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	cfg, err := req.Config(s.base)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key := expt.RequestKey(cfg, req.App, req.keyExtras()...)
	if key == "" {
		writeError(w, http.StatusInternalServerError, errors.New("request config cannot be keyed"))
		return
	}

	if !s.enter() {
		rejectCounter.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, errors.New("at capacity or draining, retry later"))
		return
	}
	defer s.leave()
	reqCounter.Add(1)
	id := fmt.Sprintf("r-%06d", s.reqSeq.Add(1))
	w.Header().Set("X-Request-ID", id)
	start := time.Now() //lint:wallclock request latency feeds the /metrics histogram and stream events only
	defer func() {
		requestLatency.Observe(time.Since(start).Milliseconds()) //lint:wallclock service latency telemetry, not part of any result
	}()
	track := int32(0)
	if obs.Enabled() {
		track = obs.TrackFor("serve-" + id)
	}
	sp := obs.StartSpanOn(track, "serve:request", req.App+" "+key)
	defer sp.End()

	var em *emitter
	switch req.Stream {
	case StreamNDJSON:
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("Cache-Control", "no-store")
		em = &emitter{id: id, sink: ndjsonSink{w}}
	case StreamSSE:
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-store")
		em = &emitter{id: id, sink: sseSink{w}}
	}
	pol, capW, governed := req.governorSpec()
	accepted := Event{Event: EventAccepted, App: req.App, Key: key}
	if governed {
		accepted.Policy = pol.String()
		accepted.CapW = capW
	}
	em.emit(accepted)

	s.mu.Lock()
	f, found := s.flights[key]
	if !found {
		f = newFlight(key, id)
		s.flights[key] = f
	}
	s.mu.Unlock()

	if found {
		select {
		case <-f.done:
			// Finished earlier: the flight map doubles as the in-memory
			// result store, so this request costs no pipeline work at all.
			resultHitCounter.Add(1)
			em.emit(Event{Event: EventDedup, Outcome: "result-hit", Leader: f.leaderID})
			s.respond(w, em, f, "memo", start)
			return
		default:
		}
		// In progress: attach to the leader's execution.
		dedupSharedCounter.Add(1)
		em.emit(Event{Event: EventDedup, Outcome: "shared", Leader: f.leaderID})
		if em != nil {
			f.subscribe(em)
		}
		select {
		case <-f.done:
		case <-r.Context().Done():
			return
		}
		s.respond(w, em, f, "shared", start)
		return
	}

	em.emit(Event{Event: EventDedup, Outcome: "leader"})
	if em != nil {
		f.subscribe(em)
	}
	s.execute(f, cfg, req)
	s.respond(w, em, f, f.cacheLabel(), start)
}

// execute runs the design pipeline as the flight's leader, streaming
// stage progress to subscribers and classifying the design-cache outcome.
// Governed requests additionally run the designed mesh under the governor,
// streaming every decision as an event.
func (s *Server) execute(f *flight, cfg expt.Config, req Request) {
	// A panicking build (a bug, an aborted handler) must still seal and
	// evict the flight, or every later request for this key would block
	// forever on done.
	defer func() {
		if r := recover(); r != nil {
			s.finish(f, fmt.Errorf("design pipeline panicked: %v", r))
			panic(r)
		}
	}()
	if s.execHook != nil {
		s.execHook(f.key)
	}
	app, err := apps.ByName(req.App)
	if err != nil {
		s.finish(f, err)
		return
	}
	ob := &expt.BuildObserver{
		Stage: func(stage, state string) {
			f.stages.observe(stage, state, msSince(f.start))
			f.publish(Event{Event: EventPhase, Phase: stage, State: state})
		},
		Cache: func(hit bool) {
			outcome := "miss"
			if hit {
				outcome = "design-hit"
				designHitCounter.Add(1)
			} else {
				cacheMissCounter.Add(1)
			}
			f.setCache(hit)
			f.publish(Event{Event: EventCache, Outcome: outcome})
		},
	}
	pl, err := expt.BuildPipelineObserved(cfg, app, s.pool, s.cacheDir, ob)
	if err != nil {
		s.finish(f, err)
		return
	}
	var gov *GovernorResult
	if pol, capW, governed := req.governorSpec(); governed {
		ob.Stage("sim:governor", "start")
		run, sum, err := expt.GovernedMesh(cfg, pl, pol, capW, nil, func(d governor.Decision) {
			f.publish(Event{Event: EventDecision, Decision: &d})
		})
		if err != nil {
			s.finish(f, err)
			return
		}
		ob.Stage("sim:governor", "done")
		exec, energy, edp := run.Report.Relative(pl.Baseline.Report)
		gov = &GovernorResult{
			Policy: sum.Policy,
			CapW:   sum.CapW,
			Governed: SystemResult{
				ExecSeconds: run.Report.ExecSeconds,
				TotalJ:      run.Report.TotalJ(),
				EDP:         run.Report.EDP(),
				ExecRatio:   exec, EnergyRatio: energy, EDPRatio: edp,
			},
			Decisions:       sum.Decisions,
			Transitions:     sum.Transitions,
			Sheds:           sum.Sheds,
			CapViolations:   sum.CapViolations,
			MaxPowerW:       sum.MaxPowerW,
			WorstCasePowerW: sum.WorstCasePowerW,
		}
	}
	res := buildResult(f.key, cfg, pl, gov)
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		s.finish(f, err)
		return
	}
	f.result = res
	f.raw = append(raw, '\n')
	s.finish(f, nil)
}

// finish seals the flight. Failed flights leave the map first, so a
// request arriving after the failure starts a fresh execution instead of
// being served a stale error; successful flights stay as the result store
// entry for their key.
func (s *Server) finish(f *flight, err error) {
	f.finishOnce.Do(func() {
		if err != nil {
			s.mu.Lock()
			if s.flights[f.key] == f {
				delete(s.flights, f.key)
			}
			s.mu.Unlock()
			f.err = err
		}
		f.mu.Lock()
		f.subs = nil // release streaming subscribers; terminal events are emitted per request
		f.mu.Unlock()
		close(f.done)
	})
}

// respond writes the request's terminal answer: the shared raw result
// bytes (or error) as one document, or a terminal stream event carrying
// the result plus the leader's stage summaries.
func (s *Server) respond(w http.ResponseWriter, em *emitter, f *flight, cacheLabel string, start time.Time) {
	elapsed := msSince(start)
	if f.err != nil {
		errorCounter.Add(1)
		if em != nil {
			em.emit(Event{Event: EventError, Key: f.key, Error: f.err.Error(), ElapsedMS: elapsed})
			return
		}
		writeError(w, http.StatusInternalServerError, f.err)
		return
	}
	if em != nil {
		em.emit(Event{
			Event: EventResult, Key: f.key, Outcome: cacheLabel,
			Result: f.result, Stages: f.stages.summaries(), ElapsedMS: elapsed,
		})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Wivfi-Cache", cacheLabel)
	w.WriteHeader(http.StatusOK)
	w.Write(f.raw) //nolint:errcheck // client went away; nothing to do
}

// msSince measures wall time for the observability plane — stream events,
// stage summaries, the latency histogram — never for result documents.
func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond) //lint:wallclock telemetry-only elapsed time
}

// writeJSON writes v as a compact JSON document.
func writeJSON(w http.ResponseWriter, status int, v any) {
	blob, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(blob, '\n')) //nolint:errcheck
}

// writeError writes the service's uniform JSON error document.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{err.Error()})
}
