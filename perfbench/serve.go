package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"wivfi/internal/apps"
	"wivfi/internal/serve"
)

// serve: an in-process wivfid server on loopback with a fresh design
// cache, driven by nproc closed-loop clients. Set-up warms one config per
// app in serveApps (cold pipelines, checked against the goldens). The
// seeded schedule is hot requests for those configs (result-store reads)
// with every serveColdEvery-th request a cold one for a fresh freq_margin
// variant (design-cache miss, pipeline, design-cache write).
type serveInst struct {
	e       *env
	srv     *serve.Server
	http    *http.Server
	served  chan struct{} // closed once the http.Server's Serve returns
	base    string
	client  *http.Client
	dir     string
	hotApps []string // per schedule slot
	warmed  []sample

	mu     sync.Mutex
	bodies map[string]string // key -> body digest of the first response
	m0     serve.Metrics     // counters after set-up

	coldMu   sync.Mutex
	colds    int           // cold requests in flight
	coldFrom time.Duration // process CPU when colds last became non-zero
	coldCPU  time.Duration // process CPU spent while colds > 0
	coldBusy atomic.Bool   // colds > 0, for hot ops to read without the lock
	// pipelineCPUms is the median process CPU of one warming request, a
	// cold pipeline with nothing else running.
	pipelineCPUms float64
}

// serveApps are the warmed configs (default paper config per app).
var serveApps = []string{"hist", "lr", "mm", "wc"}

// serveColdEvery is the spacing of cold requests in the schedule.
const serveColdEvery = 8000

// serveSlots is the length of the seeded hot-request schedule.
const serveSlots = 1 << 12

func setupServe(e *env) (instance, error) {
	dir, err := os.MkdirTemp(e.work, "serve-cache-")
	if err != nil {
		return nil, err
	}
	s := &serveInst{e: e, dir: dir, bodies: map[string]string{}}
	s.srv = serve.NewServer(serve.Options{Parallelism: e.procs, CacheDir: dir})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.http = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		s.http.Serve(lis) // returns ErrServerClosed once close() shuts it down
	}()
	s.base = "http://" + lis.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: e.procs}}

	rng := rand.New(rand.NewSource(e.seed))
	s.hotApps = make([]string, serveSlots)
	for i := range s.hotApps {
		s.hotApps[i] = serveApps[rng.Intn(len(serveApps))]
	}
	var warmCPU []float64
	for _, app := range serveApps {
		c0 := readUsage().cpu
		smp := s.request(serve.Request{App: app}, classSetup)
		warmCPU = append(warmCPU, float64((readUsage().cpu-c0).Microseconds())/1000)
		if smp.ok && e.gold.Serve != nil && smp.digest != e.gold.Serve[app] {
			smp.ok, smp.note = false, "serve: "+app+" response differs from the golden"
		}
		s.warmed = append(s.warmed, smp)
	}
	s.pipelineCPUms = median(warmCPU)
	s.m0 = serve.ParseMetrics(string(s.handler("/metrics")))
	return s, nil
}

// schedule returns op i's request: hot for a warmed config, or every
// serveColdEvery-th op a cold request for a variant no earlier op used.
func (s *serveInst) schedule(i int) (serve.Request, string) {
	app := s.hotApps[i%serveSlots]
	if i%serveColdEvery != serveColdEvery/2 {
		return serve.Request{App: app}, classHot
	}
	m := 0.30 + 0.0001*float64(i/serveColdEvery+1)
	return serve.Request{App: app, FreqMargin: &m}, classCold
}

func designURL(req serve.Request) string {
	q := url.Values{"app": {req.App}}
	if req.FreqMargin != nil {
		q.Set("freq_margin", fmt.Sprint(*req.FreqMargin))
	}
	return "/v1/design?" + q.Encode()
}

// request issues one request over loopback and checks the response: a
// key's body must never change, and a cold body must be served again
// unchanged by the result store.
func (s *serveInst) request(req serve.Request, class string) sample {
	t0 := time.Now()
	body, err := s.get(designURL(req))
	smp := sample{class: class, ms: msSince(t0), digest: digest(body)}
	if err != nil {
		smp.note = err.Error()
		return smp
	}
	var res serve.Result
	if err := json.Unmarshal(body, &res); err != nil || res.App != req.App {
		smp.note = fmt.Sprintf("serve: bad response for %s: %v", req.App, err)
		return smp
	}
	if class == classCold {
		again, err := s.get(designURL(req))
		if err != nil || digest(again) != smp.digest {
			smp.note = fmt.Sprintf("serve: hot response for %s differs from its cold response (%v)", res.Key, err)
			return smp
		}
	}
	s.mu.Lock()
	first, seen := s.bodies[res.Key]
	if !seen {
		s.bodies[res.Key] = smp.digest
	}
	s.mu.Unlock()
	if seen && first != smp.digest {
		smp.note = "serve: response for " + res.Key + " changed"
		return smp
	}
	smp.ok = true
	return smp
}

func (s *serveInst) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

func (s *serveInst) callers() int { return s.e.procs }
func (s *serveInst) op(i int) sample {
	req, class := s.schedule(i)
	if class == classCold {
		s.coldStarted()
		defer s.coldEnded()
		return s.request(req, class)
	}
	busy := s.coldBusy.Load()
	smp := s.request(req, class)
	smp.busy = busy || s.coldBusy.Load()
	return smp
}

// coldStarted and coldEnded bracket a cold request, so that the process
// CPU spent while any cold request is in flight can be told apart.
func (s *serveInst) coldStarted() {
	s.coldMu.Lock()
	defer s.coldMu.Unlock()
	if s.colds == 0 {
		s.coldFrom = readUsage().cpu
		s.coldBusy.Store(true)
	}
	s.colds++
}

func (s *serveInst) coldEnded() {
	s.coldMu.Lock()
	defer s.coldMu.Unlock()
	s.colds--
	if s.colds == 0 {
		s.coldCPU += readUsage().cpu - s.coldFrom
		s.coldBusy.Store(false)
	}
}

// coldCPUShare bounds the share of a run's process CPU (cpu) that its
// nCold cold requests took. The estimate counts one set-up pipeline's CPU
// per cold request; the upper bound is all CPU spent while any cold
// request was in flight, hot requests served beside it included.
func (s *serveInst) coldCPUShare(nCold int, cpu time.Duration) (estimate, upper float64) {
	s.coldMu.Lock()
	defer s.coldMu.Unlock()
	ms := float64(cpu.Microseconds()) / 1000
	return float64(nCold) * s.pipelineCPUms / ms, float64(s.coldCPU.Microseconds()) / 1000 / ms
}
func (s *serveInst) serialOp(i int) sample  { return s.op(i) }
func (s *serveInst) setupSamples() []sample { return s.warmed }

func (s *serveInst) close() {
	s.http.Close()
	<-s.served
	s.client.CloseIdleConnections()
	os.RemoveAll(s.dir)
}

// handler runs one request through Handler().ServeHTTP on a recorder: the
// request path without a socket.
func (s *serveInst) handler(path string) []byte {
	rec := httptest.NewRecorder()
	s.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Body.Bytes()
}

// handlerHotCalls is how many recorder calls per warmed config the traced
// run times after its replay (a single call is too short to read
// allocation statistics around).
const handlerHotCalls = 64

// replay issues op i over loopback as the op. For a cold op it then, as a
// side call, replays the pipeline through the layer functions and checks
// it against the response. Hot ops get no side calls, so the replay keeps
// the back-to-back request rhythm of the untraced run; the hot request
// path is timed on a recorder in finishTrace.
func (s *serveInst) replay(i int, t *tracer) (string, error) {
	req, class := s.schedule(i)
	var smp sample
	_ = t.timed("serve.request", func() error { smp = s.request(req, class); return nil })
	if !smp.ok {
		return "", fmt.Errorf("%s", smp.note)
	}
	if class == classHot {
		return smp.digest, nil
	}
	err := t.side("serve.cold_layers", func() error {
		cfg, err := req.Config(s.srv.Base())
		if err != nil {
			return err
		}
		app, err := apps.ByName(req.App)
		if err != nil {
			return err
		}
		w, err := app.Workload(cfg.Build.Chip.NumCores())
		if err != nil {
			return err
		}
		prof, plan, err := design(t, cfg, w)
		if err != nil {
			return err
		}
		runs, err := pipelineRuns(t, cfg.Build, w, prof, plan)
		if err != nil {
			return err
		}
		var res serve.Result
		if err := json.Unmarshal(s.handler(designURL(req)), &res); err != nil {
			return err
		}
		got := []serve.SystemResult{res.Baseline, res.VFI1Mesh, res.VFI2Mesh, res.WiNoCMinHop, res.WiNoCMaxWireless}
		for k, r := range runs {
			if got[k].ExecSeconds != r.Report.ExecSeconds || got[k].TotalJ != r.Report.TotalJ() {
				return fmt.Errorf("serve: replayed %s of %s differs from the response", r.System, res.Key)
			}
		}
		return nil
	})
	return smp.digest, err
}

// finishTrace times the hot request path, Handler().ServeHTTP on a
// recorder with no socket, for every warmed config, and records the
// server's own request counters over the replay.
func (s *serveInst) finishTrace(t *tracer) error {
	for _, app := range serveApps {
		path := designURL(serve.Request{App: app})
		if err := t.calls("serve.handler_hot", handlerHotCalls, func() error {
			for k := 0; k < handlerHotCalls; k++ {
				if digest(s.handler(path)) != s.e.gold.Serve[app] {
					return fmt.Errorf("serve: recorder response for %s differs from the golden", app)
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	m := serve.ParseMetrics(string(s.handler("/metrics")))
	l := t.layer("serve.metrics")
	l.calls = 1
	l.sums["requests"] = m.CounterDelta(s.m0, serve.MetricRequests)
	l.sums["result_hits"] = m.CounterDelta(s.m0, serve.MetricResultHits)
	l.sums["dedup_shared"] = m.CounterDelta(s.m0, serve.MetricDedupShared)
	return nil
}

// serveGoldens computes the warmed configs' response digests.
func serveGoldens(e *env) (map[string]string, error) {
	inst, err := setupServe(&env{work: e.work, procs: e.procs, seed: 1, gold: &goldens{}})
	if err != nil {
		return nil, err
	}
	defer inst.close()
	out := map[string]string{}
	for k, smp := range inst.setupSamples() {
		if !smp.ok {
			return nil, fmt.Errorf("%s", smp.note)
		}
		out[serveApps[k]] = smp.digest
	}
	return out, nil
}
