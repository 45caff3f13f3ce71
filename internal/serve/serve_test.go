package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"wivfi/internal/apps"
	"wivfi/internal/expt"
)

// newTestServer starts a wivfid handler on an httptest listener. Tests use
// the cheap "mm" benchmark so a cold pipeline build stays sub-second.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postDesign submits one design request and returns the response.
func postDesign(t *testing.T, baseURL string, req Request) *http.Response {
	t.Helper()
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/design", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// getDesign issues one GET to url and returns the response.
func getDesign(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// body reads and closes a response body.
func body(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

func TestDesignResultMatchesDirectPipeline(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	resp := postDesign(t, ts.URL, Request{App: "mm"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200: %s", resp.StatusCode, body(t, resp))
	}
	if got := resp.Header.Get("X-Wivfi-Cache"); got != "miss" {
		t.Errorf("X-Wivfi-Cache = %q on a cold server, want %q", got, "miss")
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("response missing X-Request-ID")
	}
	var got Result
	raw := body(t, resp)
	if err := json.Unmarshal([]byte(raw), &got); err != nil {
		t.Fatalf("response not a Result document: %v", err)
	}

	app, err := apps.ByName("mm")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := expt.BuildPipeline(s.Base(), app)
	if err != nil {
		t.Fatal(err)
	}
	want := buildResult(expt.RequestKey(s.Base(), "mm"), s.Base(), pl, nil)
	wantRaw, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if raw != string(wantRaw)+"\n" {
		t.Errorf("served result differs from a direct pipeline build:\nserved: %s\ndirect: %s", raw, wantRaw)
	}
	if got.BestStrategy != "min-hop" && got.BestStrategy != "max-wireless" {
		t.Errorf("best_strategy = %q, want a placement strategy name", got.BestStrategy)
	}
	if got.BestEDPRatio <= 0 || got.BestEDPRatio >= 1 {
		t.Errorf("best_edp_ratio = %v, want in (0, 1): the WiNoC should beat the baseline", got.BestEDPRatio)
	}
}

func TestDesignValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name string
		do   func() *http.Response
		want int
	}{
		{"unknown app", func() *http.Response {
			return postDesign(t, ts.URL, Request{App: "nope"})
		}, http.StatusBadRequest},
		{"missing app", func() *http.Response {
			return postDesign(t, ts.URL, Request{})
		}, http.StatusBadRequest},
		{"bad num_islands", func() *http.Response {
			n := 7
			return postDesign(t, ts.URL, Request{App: "mm", NumIslands: &n})
		}, http.StatusBadRequest},
		{"bad freq_margin", func() *http.Response {
			m := 2.5
			return postDesign(t, ts.URL, Request{App: "mm", FreqMargin: &m})
		}, http.StatusBadRequest},
		{"bad stream mode", func() *http.Response {
			return postDesign(t, ts.URL, Request{App: "mm", Stream: "carrier-pigeon"})
		}, http.StatusBadRequest},
		{"unknown policy", func() *http.Response {
			return postDesign(t, ts.URL, Request{App: "mm", Policy: "turbo"})
		}, http.StatusBadRequest},
		{"cap_watts without cap policy", func() *http.Response {
			cw := 100.0
			return postDesign(t, ts.URL, Request{App: "mm", Policy: "util", CapWatts: &cw})
		}, http.StatusBadRequest},
		{"cap_watts without policy", func() *http.Response {
			cw := 100.0
			return postDesign(t, ts.URL, Request{App: "mm", CapWatts: &cw})
		}, http.StatusBadRequest},
		{"cap_watts out of range", func() *http.Response {
			cw := 5.0
			return postDesign(t, ts.URL, Request{App: "mm", Policy: "cap", CapWatts: &cw})
		}, http.StatusBadRequest},
		{"NaN freq_margin", func() *http.Response {
			return getDesign(t, ts.URL+"/v1/design?app=wc&freq_margin=NaN")
		}, http.StatusBadRequest},
		{"NaN bottleneck_ratio", func() *http.Response {
			return getDesign(t, ts.URL+"/v1/design?app=wc&bottleneck_ratio=NaN")
		}, http.StatusBadRequest},
		{"NaN cap_watts", func() *http.Response {
			return getDesign(t, ts.URL+"/v1/design?app=wc&policy=cap&cap_watts=NaN")
		}, http.StatusBadRequest},
		{"unknown body field", func() *http.Response {
			resp, err := http.Post(ts.URL+"/v1/design", "application/json",
				strings.NewReader(`{"app":"mm","frequency_margin":0.3}`))
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusBadRequest},
		{"bad query number", func() *http.Response {
			return getDesign(t, ts.URL+"/v1/design?app=mm&num_islands=four")
		}, http.StatusBadRequest},
		{"method not allowed", func() *http.Response {
			req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/design", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := tc.do()
			raw := body(t, resp)
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d: %s", resp.StatusCode, tc.want, raw)
			}
			var doc struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal([]byte(raw), &doc); err != nil || doc.Error == "" {
				t.Errorf("error response is not the uniform error document: %q", raw)
			}
		})
	}
}

// TestResultStoreMemo: a repeated config is answered from the in-memory
// result store — byte-identical body, classified "memo" in the header.
func TestResultStoreMemo(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	hitsBefore := resultHitCounter.Value()

	first := postDesign(t, ts.URL, Request{App: "mm"})
	firstBody := body(t, first)
	second := postDesign(t, ts.URL, Request{App: "mm"})
	if got := second.Header.Get("X-Wivfi-Cache"); got != "memo" {
		t.Errorf("repeat request X-Wivfi-Cache = %q, want %q", got, "memo")
	}
	if secondBody := body(t, second); secondBody != firstBody {
		t.Error("memoized response is not byte-identical to the original")
	}
	if d := resultHitCounter.Value() - hitsBefore; d != 1 {
		t.Errorf("result-hit counter moved by %d, want 1", d)
	}
	if first.Header.Get("X-Request-ID") == second.Header.Get("X-Request-ID") {
		t.Error("distinct requests share an X-Request-ID")
	}
}

// TestSingleflightDedupByteIdentical is the dedup contract: N concurrent
// identical requests execute the pipeline once and every caller receives
// the shared result, byte-identical to a solo run on a fresh server.
func TestSingleflightDedupByteIdentical(t *testing.T) {
	const n = 8
	s, ts := newTestServer(t, Options{MaxInFlight: n + 1})
	reqBefore := reqCounter.Value()
	sharedBefore := dedupSharedCounter.Value()
	memoBefore := resultHitCounter.Value()

	var execs []string
	var execMu sync.Mutex
	gate := make(chan struct{})
	s.execHook = func(key string) {
		execMu.Lock()
		execs = append(execs, key)
		execMu.Unlock()
		<-gate
	}

	bodies := make([]string, n)
	caches := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postDesign(t, ts.URL, Request{App: "mm"})
			caches[i] = resp.Header.Get("X-Wivfi-Cache")
			bodies[i] = body(t, resp)
		}(i)
	}
	// Hold the leader until every request has been admitted, so the other
	// n-1 either attach to the running flight or hit the result store.
	deadline := time.Now().Add(10 * time.Second)
	for reqCounter.Value()-reqBefore < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests admitted before deadline", reqCounter.Value()-reqBefore, n)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if len(execs) != 1 {
		t.Fatalf("pipeline executed %d times for %d identical requests, want exactly 1 (keys: %v)", len(execs), n, execs)
	}
	for i := 1; i < n; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("request %d body differs from request 0", i)
		}
	}
	var leaders, followers int
	for _, c := range caches {
		switch c {
		case "miss":
			leaders++
		case "shared", "memo":
			followers++
		default:
			t.Errorf("unexpected X-Wivfi-Cache %q", c)
		}
	}
	if leaders != 1 || followers != n-1 {
		t.Errorf("cache classifications = %v, want 1 miss + %d shared/memo", caches, n-1)
	}
	if d := (dedupSharedCounter.Value() - sharedBefore) + (resultHitCounter.Value() - memoBefore); d != n-1 {
		t.Errorf("shared+memo counters moved by %d, want %d", d, n-1)
	}

	// Byte-identity against a solo run on a completely fresh server.
	_, solo := newTestServer(t, Options{})
	resp := postDesign(t, solo.URL, Request{App: "mm"})
	if soloBody := body(t, resp); soloBody != bodies[0] {
		t.Errorf("deduplicated result differs from a solo run:\ndedup: %s\nsolo:  %s", bodies[0], soloBody)
	}
}

// TestFailedFlightIsRetried: a failed execution must not poison the result
// store — the next request for the same key re-executes.
func TestFailedFlightIsRetried(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	var mu sync.Mutex
	calls := 0
	s.execHook = func(key string) {
		mu.Lock()
		c := calls
		calls++
		mu.Unlock()
		if c == 0 {
			// Abort the first leader mid-flight; the flight must still be
			// sealed and evicted, not leaked into the result store.
			panic(http.ErrAbortHandler)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/design", "application/json", strings.NewReader(`{"app":"mm"}`))
	if err == nil {
		body(t, resp)
	}
	resp2 := postDesign(t, ts.URL, Request{App: "mm"})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("retry after aborted flight: status %d: %s", resp2.StatusCode, body(t, resp2))
	}
	if got := resp2.Header.Get("X-Wivfi-Cache"); got != "miss" {
		t.Errorf("retry X-Wivfi-Cache = %q, want a fresh miss (no memo from the aborted flight)", got)
	}
	body(t, resp2)
	mu.Lock()
	defer mu.Unlock()
	if calls != 2 {
		t.Errorf("execHook fired %d times, want 2 (the retry re-executes)", calls)
	}
}

// TestAdmissionControl: requests beyond MaxInFlight shed with 503 and a
// Retry-After hint, and are counted as rejects.
func TestAdmissionControl(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxInFlight: 1})
	rejectsBefore := rejectCounter.Value()

	entered := make(chan struct{})
	gate := make(chan struct{})
	s.execHook = func(string) {
		close(entered)
		<-gate
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp := postDesign(t, ts.URL, Request{App: "mm"})
		body(t, resp)
	}()
	<-entered

	resp := postDesign(t, ts.URL, Request{App: "wc"})
	raw := body(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity status = %d, want 503: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 response missing Retry-After")
	}
	if d := rejectCounter.Value() - rejectsBefore; d != 1 {
		t.Errorf("reject counter moved by %d, want 1", d)
	}
	close(gate)
	wg.Wait()
}

// TestDrain: a draining server rejects new work, waits for in-flight
// requests, and reports its state on /healthz.
func TestDrain(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	resp := postDesign(t, ts.URL, Request{App: "mm"})
	body(t, resp)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain on an idle server: %v", err)
	}
	resp = postDesign(t, ts.URL, Request{App: "mm"})
	if raw := body(t, resp); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status = %d, want 503: %s", resp.StatusCode, raw)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}
	if err := json.Unmarshal([]byte(body(t, hresp)), &health); err != nil {
		t.Fatal(err)
	}
	if !health.Draining || health.Status != "draining" {
		t.Errorf("healthz after drain = %+v, want draining", health)
	}
}

// TestDrainWaitsForInFlight: Drain blocks until the outstanding request
// completes.
func TestDrainWaitsForInFlight(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	entered := make(chan struct{})
	gate := make(chan struct{})
	s.execHook = func(string) {
		close(entered)
		<-gate
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp := postDesign(t, ts.URL, Request{App: "mm"})
		body(t, resp)
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Error("Drain returned while a request was still in flight")
	}
	close(gate)
	wg.Wait()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := s.Drain(ctx2); err != nil {
		t.Errorf("Drain after the request finished: %v", err)
	}
}

// TestDrainDuringOpenStream: Drain waits for an open NDJSON or SSE stream,
// a request arriving during the drain is shed with 503, and the open
// stream still ends with its result event under contiguous seq numbers.
func TestDrainDuringOpenStream(t *testing.T) {
	for _, mode := range []string{StreamNDJSON, StreamSSE} {
		t.Run(mode, func(t *testing.T) {
			s, ts := newTestServer(t, Options{})
			entered := make(chan struct{})
			gate := make(chan struct{})
			release := sync.OnceFunc(func() { close(gate) })
			t.Cleanup(release)
			s.execHook = func(string) {
				close(entered)
				<-gate
			}
			streamed := make(chan string, 1)
			go func() {
				var raw []byte
				defer func() { streamed <- string(raw) }()
				resp, err := http.Get(ts.URL + "/v1/design?app=mm&stream=" + mode)
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				if raw, err = io.ReadAll(resp.Body); err != nil {
					t.Error(err)
				}
			}()
			<-entered

			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			if err := s.Drain(ctx); err == nil {
				t.Fatal("Drain returned while a stream was open")
			}
			resp := getDesign(t, ts.URL+"/v1/design?app=wc")
			if raw := body(t, resp); resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("status during the drain = %d, want 503: %s", resp.StatusCode, raw)
			}
			drained := make(chan error, 1)
			go func() { drained <- s.Drain(context.Background()) }()
			release()
			if err := <-drained; err != nil {
				t.Fatalf("Drain after the stream finished: %v", err)
			}

			var events []Event
			for _, line := range strings.Split(<-streamed, "\n") {
				line = strings.TrimPrefix(line, "data: ")
				if line == "" || strings.HasPrefix(line, "event: ") {
					continue
				}
				var ev Event
				if err := json.Unmarshal([]byte(line), &ev); err != nil {
					t.Fatalf("stream line is not an Event: %v\nline: %s", err, line)
				}
				events = append(events, ev)
			}
			for i, ev := range events {
				if ev.Seq != int64(i+1) {
					t.Errorf("event %d seq = %d, want %d", i, ev.Seq, i+1)
				}
			}
			if len(events) == 0 || events[len(events)-1].Event != EventResult || events[len(events)-1].Result == nil {
				t.Fatalf("drained stream %v does not end with a result", eventNames(events))
			}
		})
	}
}

// TestDesignCacheClassification: with a shared on-disk cache directory, a
// fresh server's first request reloads the design (design-hit) instead of
// recomputing it.
func TestDesignCacheClassification(t *testing.T) {
	dir := t.TempDir()
	_, cold := newTestServer(t, Options{CacheDir: dir})
	resp := postDesign(t, cold.URL, Request{App: "mm"})
	if got := resp.Header.Get("X-Wivfi-Cache"); got != "miss" {
		t.Errorf("cold X-Wivfi-Cache = %q, want miss", got)
	}
	coldBody := body(t, resp)

	_, warm := newTestServer(t, Options{CacheDir: dir})
	resp = postDesign(t, warm.URL, Request{App: "mm"})
	if got := resp.Header.Get("X-Wivfi-Cache"); got != "design" {
		t.Errorf("warm X-Wivfi-Cache = %q, want design", got)
	}
	if warmBody := body(t, resp); warmBody != coldBody {
		t.Error("design-cache reload produced a different result document")
	}
}

func TestHealthzAndApps(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if raw := body(t, resp); resp.StatusCode != http.StatusOK || !strings.Contains(raw, `"ok"`) {
		t.Errorf("healthz = %d %q", resp.StatusCode, raw)
	}
	resp, err = http.Get(ts.URL + "/v1/apps")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Apps []string `json:"apps"`
	}
	if err := json.Unmarshal([]byte(body(t, resp)), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Apps) < 6 {
		t.Errorf("apps list = %v, want the 6 paper benchmarks", doc.Apps)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if raw := body(t, resp); !strings.Contains(raw, "wivfi_serve_requests") {
		t.Error("/metrics missing the serve.requests counter family")
	}
}

// TestLatencyHistogramOnMetrics: request latency appears on /metrics in
// Prometheus histogram form with the service's declared name.
func TestLatencyHistogramOnMetrics(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	countBefore := requestLatency.Count()
	resp := postDesign(t, ts.URL, Request{App: "mm"})
	body(t, resp)
	if d := requestLatency.Count() - countBefore; d != 1 {
		t.Fatalf("latency histogram grew by %d observations, want 1", d)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw := body(t, mresp)
	for _, want := range []string{
		"# TYPE wivfi_serve_request_latency_ms histogram",
		`wivfi_serve_request_latency_ms_bucket{le="+Inf"}`,
		"wivfi_serve_request_latency_ms_count",
	} {
		if !strings.Contains(raw, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestOneSlotColdDesign serves one cold design request from a server whose
// shared pool has a single slot. Any pool job on the request path that
// acquired the same pool again would wait forever for the slot it holds,
// so the response arriving at all proves the path has no nesting.
func TestOneSlotColdDesign(t *testing.T) {
	const bound = 2 * time.Minute
	_, ts := newTestServer(t, Options{Parallelism: 1})
	done := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/design", "application/json", strings.NewReader(`{"app":"mm"}`))
		if err != nil {
			t.Error(err)
		}
		done <- resp
	}()
	select {
	case resp := <-done:
		if resp == nil {
			return
		}
		if raw := body(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200: %s", resp.StatusCode, raw)
		}
	case <-time.After(bound):
		buf := make([]byte, 1<<20)
		t.Logf("goroutines:\n%s", buf[:runtime.Stack(buf, true)])
		t.Fatalf("cold request on a one-slot server still running after %v: nested acquisition of the same sim.Pool?", bound)
	}
}
