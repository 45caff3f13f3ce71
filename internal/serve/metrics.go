package serve

import (
	"wivfi/internal/obs"
	"wivfi/internal/timeline"
)

// Metric names registered below. Declared constants (enforced by
// wivfi-lint countersafe) so every lookup site — handlers, tests, the CI
// smoke job and the load generator's /metrics scrape — shares one
// authoritative spelling.
const (
	// MetricRequests counts every request admitted past admission control
	// (streamed or plain, leader or follower).
	MetricRequests = "serve.requests"
	// MetricRejects counts requests bounced by admission control (over
	// capacity or draining).
	MetricRejects = "serve.admission_rejects"
	// MetricErrors counts admitted requests that ended in a pipeline error.
	MetricErrors = "serve.errors"
	// MetricInFlight gauges the requests currently inside the service
	// (admitted, not yet responded), with a high-water mark.
	MetricInFlight = "serve.in_flight"
	// MetricDedupShared counts requests that attached to another request's
	// in-progress execution (per-config singleflight).
	MetricDedupShared = "serve.singleflight_shared"
	// MetricResultHits counts requests answered straight from the
	// in-memory result store (no pipeline work at all).
	MetricResultHits = "serve.cache.result_hits"
	// MetricDesignHits counts leader executions that reloaded the profile
	// and VFI plan from the on-disk design cache.
	MetricDesignHits = "serve.cache.design_hits"
	// MetricCacheMisses counts leader executions that ran the full design
	// flow cold.
	MetricCacheMisses = "serve.cache.misses"
	// MetricLatencyMS is the end-to-end request latency histogram
	// (milliseconds, log-bucketed by internal/timeline, exported on
	// /metrics in Prometheus histogram text format).
	MetricLatencyMS = "serve.request_latency_ms"
)

var (
	reqCounter         = obs.NewCounter(MetricRequests)
	rejectCounter      = obs.NewCounter(MetricRejects)
	errorCounter       = obs.NewCounter(MetricErrors)
	inFlightGauge      = obs.NewGauge(MetricInFlight)
	dedupSharedCounter = obs.NewCounter(MetricDedupShared)
	resultHitCounter   = obs.NewCounter(MetricResultHits)
	designHitCounter   = obs.NewCounter(MetricDesignHits)
	cacheMissCounter   = obs.NewCounter(MetricCacheMisses)

	// requestLatency is process-wide like the counters: every Server in
	// the process observes into one histogram, which is what /metrics
	// exposes.
	requestLatency = timeline.NewHistogram(timeline.Meta{
		Name: MetricLatencyMS, IndexUnit: "ms", Unit: "requests",
	})
)

func init() {
	obs.RegisterHistogram(MetricLatencyMS, requestLatency)
}
