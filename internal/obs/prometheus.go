package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"

	"wivfi/internal/timeline"
)

// PromName reports how a registered metric name appears on /metrics: it
// sanitizes the name into a legal Prometheus identifier and namespaces it,
// "sim.pool.queue-wait" -> "wivfi_sim_pool_queue_wait". Scrapers (the load
// generator, the CI smoke job) derive sample names from the same declared
// constants the daemon registers.
func PromName(name string) string {
	var b strings.Builder
	b.WriteString("wivfi_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// histograms holds the registered histograms by name.
var histograms struct {
	mu sync.Mutex
	by map[string]*timeline.Histogram
}

// RegisterHistogram publishes h on /metrics under name (same dotted
// namespace as counters and gauges; h is read on every scrape).
// Re-registering a name replaces the histogram, so tests that rebuild a
// server keep one live family per name.
func RegisterHistogram(name string, h *timeline.Histogram) {
	histograms.mu.Lock()
	if histograms.by == nil {
		histograms.by = map[string]*timeline.Histogram{}
	}
	histograms.by[name] = h
	histograms.mu.Unlock()
}

// registeredHistograms copies the registry so histograms are read outside
// its lock.
func registeredHistograms() map[string]*timeline.Histogram {
	histograms.mu.Lock()
	defer histograms.mu.Unlock()
	out := make(map[string]*timeline.Histogram, len(histograms.by))
	for name, h := range histograms.by {
		out[name] = h
	}
	return out
}

// WritePrometheus renders every registered counter, gauge and histogram in
// the Prometheus text exposition format (one `counter` family per Counter,
// a `gauge` family plus a `_max` high-water family per Gauge, a cumulative
// `histogram` family with _bucket/_sum/_count per registered histogram,
// where each non-empty timeline bucket [Lo, Hi] becomes one le="Hi"
// bucket, keeping the log-spaced boundaries).
// Output is sorted by family name, so it is deterministic for tests and
// diffable between scrapes.
func WritePrometheus(w io.Writer) {
	type family struct {
		name, kind, help string
		value            int64
		hist             *timeline.HistogramData
	}
	var fams []family
	for name, v := range CounterTotals() {
		fams = append(fams, family{name: PromName(name), kind: "counter", help: "Total of the " + name + " counter.", value: v})
	}
	for name, g := range GaugeReadings() {
		fams = append(fams, family{name: PromName(name), kind: "gauge", help: "Current level of the " + name + " gauge.", value: g.Value})
		fams = append(fams, family{name: PromName(name) + "_max", kind: "gauge", help: "High-water mark of the " + name + " gauge.", value: g.Max})
	}
	for name, h := range registeredHistograms() {
		fams = append(fams, family{name: PromName(name), kind: "histogram", help: "Distribution of " + name + ".", hist: h.Data()})
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		if f.hist == nil {
			fmt.Fprintf(w, "%s %d\n", f.name, f.value)
			continue
		}
		var cum int64
		for _, b := range f.hist.Buckets {
			cum += b.Count
			fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", f.name, b.Hi, cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", f.name, f.hist.Count)
		fmt.Fprintf(w, "%s_sum %d\n", f.name, f.hist.Sum)
		fmt.Fprintf(w, "%s_count %d\n", f.name, f.hist.Count)
	}
}

// promHandler serves WritePrometheus as the /metrics endpoint.
func promHandler(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WritePrometheus(w)
}
