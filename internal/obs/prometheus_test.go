package obs

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"wivfi/internal/timeline"
)

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"sim.pool.queue-wait": "wivfi_sim_pool_queue_wait",
		"expt.cache.hits":     "wivfi_expt_cache_hits",
		"Already_OK9":         "wivfi_Already_OK9",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	c := NewCounter("promtest.requests")
	c.Add(41)
	c.Add(1)
	g := NewGauge("promtest.in-flight")
	g.Add(5)
	g.Add(-2)

	var b strings.Builder
	WritePrometheus(&b)
	out := b.String()

	for _, want := range []string{
		"# TYPE wivfi_promtest_requests counter\nwivfi_promtest_requests 42\n",
		"# TYPE wivfi_promtest_in_flight gauge\nwivfi_promtest_in_flight 3\n",
		"# TYPE wivfi_promtest_in_flight_max gauge\nwivfi_promtest_in_flight_max 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// every sample line is a legal prometheus pair (histogram buckets may
	// carry an le label), every family has HELP and TYPE, and families are
	// sorted
	sample := regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*(\{le="(\+Inf|\d+)"\})? -?\d+$`)
	var families []string
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	for i, ln := range lines {
		if name, ok := strings.CutPrefix(ln, "# TYPE "); ok {
			families = append(families, strings.Fields(name)[0])
			continue
		}
		if strings.HasPrefix(ln, "# HELP ") {
			continue
		}
		if !sample.MatchString(ln) {
			t.Errorf("line %d not a valid sample: %q", i, ln)
		}
	}
	if !sort.StringsAreSorted(families) {
		t.Errorf("families not sorted: %v", families)
	}
	if len(families) == 0 {
		t.Fatal("no families rendered")
	}
}

// promFamily returns the lines of out that belong to the named family.
func promFamily(out, name string) string {
	member := map[string]bool{name: true, name + "_bucket": true, name + "_sum": true, name + "_count": true}
	var b strings.Builder
	for _, ln := range strings.SplitAfter(out, "\n") {
		tok := strings.TrimPrefix(strings.TrimPrefix(ln, "# HELP "), "# TYPE ")
		if i := strings.IndexAny(tok, " {"); i >= 0 && member[tok[:i]] {
			b.WriteString(ln)
		}
	}
	return b.String()
}

// TestWritePrometheusHistogram pins the /metrics text of registered
// timeline histograms: every non-empty log bucket [Lo, Hi] renders as one
// cumulative le="Hi" bucket. The expected literals are the exporter's
// output for the same observations before histograms were registered as
// *timeline.Histogram (through a neutral snapshot adapter), so the text
// scrapers see is unchanged byte for byte.
func TestWritePrometheusHistogram(t *testing.T) {
	h := timeline.NewHistogram(timeline.Meta{Name: "promtest.latency_ms"})
	for _, v := range []int64{0, 1, 1, 3, 15, 16, 17, 100, 1000, 5000} {
		h.Observe(v)
	}
	RegisterHistogram("promtest.latency_ms", h)
	var b strings.Builder
	WritePrometheus(&b)
	want := `# HELP wivfi_promtest_latency_ms Distribution of promtest.latency_ms.
# TYPE wivfi_promtest_latency_ms histogram
wivfi_promtest_latency_ms_bucket{le="0"} 1
wivfi_promtest_latency_ms_bucket{le="1"} 3
wivfi_promtest_latency_ms_bucket{le="3"} 4
wivfi_promtest_latency_ms_bucket{le="15"} 5
wivfi_promtest_latency_ms_bucket{le="17"} 7
wivfi_promtest_latency_ms_bucket{le="103"} 8
wivfi_promtest_latency_ms_bucket{le="1023"} 9
wivfi_promtest_latency_ms_bucket{le="5119"} 10
wivfi_promtest_latency_ms_bucket{le="+Inf"} 10
wivfi_promtest_latency_ms_sum 6153
wivfi_promtest_latency_ms_count 10
`
	if got := promFamily(b.String(), "wivfi_promtest_latency_ms"); got != want {
		t.Errorf("histogram family:\nwant:\n%s\ngot:\n%s", want, got)
	}

	// re-registering the same name replaces the histogram instead of
	// duplicating the family
	h2 := timeline.NewHistogram(timeline.Meta{Name: "promtest.latency_ms"})
	h2.Observe(3)
	RegisterHistogram("promtest.latency_ms", h2)
	b.Reset()
	WritePrometheus(&b)
	want = `# HELP wivfi_promtest_latency_ms Distribution of promtest.latency_ms.
# TYPE wivfi_promtest_latency_ms histogram
wivfi_promtest_latency_ms_bucket{le="3"} 1
wivfi_promtest_latency_ms_bucket{le="+Inf"} 1
wivfi_promtest_latency_ms_sum 3
wivfi_promtest_latency_ms_count 1
`
	if got := promFamily(b.String(), "wivfi_promtest_latency_ms"); got != want {
		t.Errorf("replaced histogram family:\nwant:\n%s\ngot:\n%s", want, got)
	}

	// an empty histogram still renders its +Inf bucket, sum and count
	RegisterHistogram("promtest.empty", timeline.NewHistogram(timeline.Meta{Name: "promtest.empty"}))
	b.Reset()
	WritePrometheus(&b)
	want = `# HELP wivfi_promtest_empty Distribution of promtest.empty.
# TYPE wivfi_promtest_empty histogram
wivfi_promtest_empty_bucket{le="+Inf"} 0
wivfi_promtest_empty_sum 0
wivfi_promtest_empty_count 0
`
	if got := promFamily(b.String(), "wivfi_promtest_empty"); got != want {
		t.Errorf("empty histogram family:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	c := NewCounter("promtest.endpoint")
	c.Add(7)
	addr, err := ServeDebug("localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "wivfi_promtest_endpoint 7") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
}

// TestStartDebugServerShutdown is the embeddability contract wivfid relies
// on: the returned handle stops the debug server cleanly, the port is
// released, and a second server can start afterwards.
func TestStartDebugServerShutdown(t *testing.T) {
	addr, srv, err := StartDebugServer("localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("server not serving before shutdown: %v", err)
	}
	resp.Body.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := http.Get("http://" + addr + "/metrics"); err != nil {
			break // connection refused: listener is gone
		}
		if time.Now().After(deadline) {
			t.Fatal("server still serving after Close")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// the address is free again for a fresh server
	again, srv2, err := StartDebugServer(addr)
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer srv2.Close()
	if again != addr {
		t.Errorf("rebound to %s, want %s", again, addr)
	}
}
