// Command wivfid serves the experiment pipeline over HTTP: concurrent
// "design my chip for this benchmark" requests with admission control,
// per-config deduplication, an in-memory result store over the on-disk
// design cache, and a live observability plane.
//
// Usage:
//
//	wivfid [-addr host:port] [-j N] [-max-inflight N] [-cache dir]
//	       [-drain-timeout d] [-trace file.json] [-manifest file.json]
//	       [-v] [-debug-addr addr]
//
// Endpoints (all on one listener):
//
//	GET  /healthz               liveness + admission state
//	GET  /v1/apps               designable benchmarks
//	POST /v1/design             design request (JSON body)
//	GET  /v1/design?app=mm      the same, curl-friendly
//	GET  /metrics               Prometheus text format (counters, gauges,
//	                            request-latency histogram)
//	GET  /debug/pprof/, /debug/vars
//
// A design request returns one JSON result document, or — with
// "stream": "ndjson" or "sse" — a live event stream of the request's
// progress (admission, dedup outcome, cache classification, pipeline
// phases, final result with per-stage timings). Identical configurations
// deduplicate onto one execution and share byte-identical results.
//
// On SIGINT/SIGTERM the daemon stops admitting, drains in-flight requests
// (bounded by -drain-timeout) and exits cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"wivfi/internal/expt"
	"wivfi/internal/obs"
	"wivfi/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", "localhost:8080", "listen address")
		jobs         = flag.Int("j", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		maxInflight  = flag.Int("max-inflight", 64, "admission bound on concurrently served requests")
		cache        = flag.String("cache", "auto", `design cache dir ("auto" = user cache dir, "" = disabled)`)
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight requests")
	)
	cli := obs.NewCLI(flag.CommandLine, false)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "wivfid: %v\n", err)
		os.Exit(1)
	}
	if err := cli.Start("wivfid"); err != nil {
		fail(err)
	}
	if *jobs <= 0 {
		*jobs = runtime.GOMAXPROCS(0)
	}
	cacheDir := *cache
	if cacheDir == "auto" {
		cacheDir = expt.DefaultCacheDir()
	}
	cfg := expt.DefaultConfig()
	srv := serve.NewServer(serve.Options{
		MaxInFlight: *maxInflight,
		Parallelism: *jobs,
		CacheDir:    cacheDir,
		Base:        cfg,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "wivfid: serving on http://%s (-j %d, max-inflight %d, cache %q, config %s)\n",
		ln.Addr(), *jobs, *maxInflight, cacheDir, expt.ConfigHash(cfg))
	fmt.Fprintf(os.Stderr, "wivfid: metrics at /metrics, pprof at /debug/pprof/, design API at /v1/design\n")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "wivfid: %v, draining (up to %v)...\n", s, *drainTimeout)
	case err := <-serveErr:
		fail(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "wivfid: drain incomplete: %v\n", err)
	}
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "wivfid: shutdown: %v\n", err)
	}
	if err := cli.Finish(func(m *obs.Manifest) {
		m.Jobs = *jobs
		m.ConfigHash = expt.ConfigHash(cfg)
		m.CacheDir = cacheDir
	}); err != nil {
		fail(err)
	}
	fmt.Fprintln(os.Stderr, "wivfid: bye")
}
