package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// span is one recorded layer call. Spans of one op share Op; Parent is
// the enclosing span's ID (-1 at the op's top level). Side spans are
// measurement-only calls (for example the extra vfi.Cluster call) that
// the op's traced latency excludes.
type span struct {
	Op      int     `json:"op"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	AllocB  uint64  `json:"alloc_bytes"`
	Side    bool    `json:"side,omitempty"`
}

// layerStat aggregates the spans of one layer function.
type layerStat struct {
	calls int
	dur   time.Duration
	alloc uint64
	sums  map[string]float64 // layer-specific counters (flit hops, decisions...)
	side  bool               // called inside a side span
}

// tracer records spans and per-layer totals in memory. A nil *tracer is
// not valid; untraced ops never go through a tracer at all.
type tracer struct {
	t0      time.Time
	op      int
	spans   []span
	stack   []int
	layers  map[string]*layerStat
	sideDur time.Duration // side-span time inside the current op
	inSide  int
	lastDur time.Duration
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), layers: map[string]*layerStat{}}
}

func (t *tracer) layer(name string) *layerStat {
	l := t.layers[name]
	if l == nil {
		l = &layerStat{sums: map[string]float64{}}
		t.layers[name] = l
	}
	return l
}

// beginOp starts op i's span set.
func (t *tracer) beginOp(i int) {
	t.op = i
	t.sideDur = 0
}

// call records fn as one call of layer name.
func (t *tracer) call(name string, fn func() error) error { return t.record(name, 1, false, true, fn) }

// calls records fn as n calls of layer name (for calls too short to read
// allocation statistics around each one).
func (t *tracer) calls(name string, n int, fn func() error) error {
	return t.record(name, n, false, true, fn)
}

// timed records fn's time only: for calls so short that reading
// allocation statistics around them would dwarf them.
func (t *tracer) timed(name string, fn func() error) error {
	return t.record(name, 1, false, false, fn)
}

// side records fn as a measurement-only call excluded from op latency.
func (t *tracer) side(name string, fn func() error) error { return t.record(name, 1, true, true, fn) }

func (t *tracer) record(name string, n int, side, mem bool, fn func() error) error {
	enter := time.Now()
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: t.op, ID: id, Parent: parent, Name: name, Side: side})
	t.stack = append(t.stack, id)
	if side {
		t.inSide++
	}
	if t.inSide > 0 {
		t.layer(name).side = true
	}
	var m0, m1 runtime.MemStats
	if mem {
		runtime.ReadMemStats(&m0)
	}
	start := time.Now()
	err := fn()
	d := time.Since(start)
	if mem {
		runtime.ReadMemStats(&m1)
	}
	t.stack = t.stack[:len(t.stack)-1]
	sp := &t.spans[id]
	sp.StartUS = float64(start.Sub(t.t0).Nanoseconds()) / 1e3
	sp.EndUS = sp.StartUS + float64(d.Nanoseconds())/1e3
	sp.AllocB = m1.TotalAlloc - m0.TotalAlloc
	l := t.layer(name)
	l.calls += n
	l.dur += d
	l.alloc += sp.AllocB
	t.lastDur = d
	if side {
		t.inSide--
		if t.inSide == 0 {
			t.sideDur += time.Since(enter) // with its own bookkeeping
		}
	}
	return err
}

// add accumulates a layer-specific counter.
func (t *tracer) add(name, key string, v float64) { t.layer(name).sums[key] += v }

// tag also files the last call's duration under name@label (per-size
// rows of the table).
func (t *tracer) tag(name, label string) {
	l := t.layer(name + "@" + label)
	l.calls++
	l.dur += t.lastDur
	l.side = l.side || t.inSide > 0
}

func (t *tracer) has(name string) bool {
	l := t.layers[name]
	return l != nil && l.calls > 0
}

// label is how the table marks a layer the replay called: sideLabel if
// it ran inside a side span, else "op".
func (t *tracer) label(name, sideLabel string) string {
	if l := t.layers[name]; l != nil && l.side {
		return sideLabel
	}
	return "op"
}

func (t *tracer) perCallMS(name string) float64 {
	l := t.layers[name]
	if l == nil || l.calls == 0 {
		return 0
	}
	return float64(l.dur.Nanoseconds()) / 1e6 / float64(l.calls)
}

func (t *tracer) allocPerCall(names ...string) float64 {
	var b uint64
	calls := 0
	for _, n := range names {
		if l := t.layers[n]; l != nil {
			b += l.alloc
			calls += l.calls
		}
	}
	if calls == 0 {
		return 0
	}
	return float64(b) / float64(calls)
}

func (t *tracer) sum(name, key string) float64 {
	if l := t.layers[name]; l != nil {
		return l.sums[key]
	}
	return 0
}

func (t *tracer) seconds(name string) float64 {
	if l := t.layers[name]; l != nil {
		return l.dur.Seconds()
	}
	return 0
}

// layerMetric is one per-layer metric: the layers that feed it and how
// to compute it from a tracer.
type layerMetric struct {
	name, unit string
	layer      string // the layer whose calls decide op or reference source
	value      func(t *tracer) float64
	perOp      bool // calls of layer per replayed op
}

func perCall(layer string) func(*tracer) float64 {
	return func(t *tracer) float64 { return t.perCallMS(layer) }
}

func allocMB(layers ...string) func(*tracer) float64 {
	return func(t *tracer) float64 { return t.allocPerCall(layers...) / (1 << 20) }
}

// layerMetrics is the per-layer table. Times and allocations are per call
// of the layer function; sim.run_calls is per op.
var layerMetrics = []layerMetric{
	{name: "place.min_hop_ms", unit: "ms", layer: "place.min_hop", value: perCall("place.min_hop")},
	{name: "place.max_wireless_ms", unit: "ms", layer: "place.max_wireless", value: perCall("place.max_wireless")},
	{name: "place.map_threads_ms", unit: "ms", layer: "place.map_threads", value: perCall("place.map_threads")},
	{name: "place.alloc_mb", unit: "MB", layer: "place.map_threads",
		value: allocMB("place.min_hop", "place.max_wireless", "place.map_threads")},
	{name: "noc.build_routes_ms", unit: "ms", layer: "noc.build_routes", value: perCall("noc.build_routes")},
	{name: "noc.analytic_ms", unit: "ms", layer: "noc.analytic", value: perCall("noc.analytic")},
	{name: "noc.des_ms", unit: "ms", layer: "noc.des", value: perCall("noc.des")},
	{name: "noc.des_flit_hops_per_s", unit: "1/s", layer: "noc.des", value: func(t *tracer) float64 {
		return t.sum("noc.des", "flit_hops") / t.seconds("noc.des")
	}},
	{name: "sim.run_ms", unit: "ms", layer: "sim.run", value: perCall("sim.run")},
	{name: "sim.run_calls", unit: "count", layer: "sim.run", perOp: true},
	{name: "sim.run_governed_ms", unit: "ms", layer: "sim.run_governed", value: perCall("sim.run_governed")},
	{name: "sim.alloc_mb", unit: "MB", layer: "sim.run", value: allocMB("sim.run", "sim.run_governed")},
	{name: "vfi.design_ms", unit: "ms", layer: "vfi.design", value: perCall("vfi.design")},
	{name: "qp.cluster_ms", unit: "ms", layer: "qp.cluster", value: perCall("qp.cluster")},
	{name: "vfi.alloc_mb", unit: "MB", layer: "vfi.design", value: allocMB("vfi.design")},
	{name: "expt.design_hit_ms", unit: "ms", layer: "expt.design_hit", value: perCall("expt.design_hit")},
	{name: "expt.design_miss_ms", unit: "ms", layer: "expt.design_miss", value: perCall("expt.design_miss")},
	{name: "expt.render_ms", unit: "ms", layer: "expt.render", value: perCall("expt.render")},
	{name: "expt.pipeline_speedup", unit: "x", layer: "expt.pipeline", value: func(t *tracer) float64 {
		return t.sum("expt.pipeline", "serial_s") / t.seconds("expt.pipeline")
	}},
	{name: "serve.handler_hot_ms", unit: "ms", layer: "serve.handler_hot", value: perCall("serve.handler_hot")},
	{name: "serve.hot_alloc_kb", unit: "KB", layer: "serve.handler_hot", value: func(t *tracer) float64 {
		return t.allocPerCall("serve.handler_hot") / 1024
	}},
	{name: "serve.result_hit_ratio", unit: "ratio", layer: "serve.metrics", value: func(t *tracer) float64 {
		return t.sum("serve.metrics", "result_hits") / t.sum("serve.metrics", "requests")
	}},
	{name: "serve.dedup_shared", unit: "count", layer: "serve.metrics", value: func(t *tracer) float64 {
		return t.sum("serve.metrics", "dedup_shared")
	}},
	{name: "governor.decisions", unit: "count", layer: "sim.run_governed", value: func(t *tracer) float64 {
		return t.sum("sim.run_governed", "decisions") / float64(t.layers["sim.run_governed"].calls)
	}},
	{name: "mapreduce.map_ms", unit: "ms", layer: "mapreduce.run", value: mrPerRun("map_ms")},
	{name: "mapreduce.reduce_ms", unit: "ms", layer: "mapreduce.run", value: mrPerRun("reduce_ms")},
	{name: "mapreduce.merge_ms", unit: "ms", layer: "mapreduce.run", value: mrPerRun("merge_ms")},
	{name: "mapreduce.steals_per_task", unit: "ratio", layer: "mapreduce.run", value: func(t *tracer) float64 {
		return t.sum("mapreduce.run", "steals") / t.sum("mapreduce.run", "tasks")
	}},
	{name: "mapreduce.records_per_s", unit: "1/s", layer: "mapreduce.run", value: func(t *tracer) float64 {
		return t.sum("mapreduce.run", "records") / t.seconds("mapreduce.run")
	}},
	{name: "mapreduce.alloc_mb", unit: "MB", layer: "mapreduce.run", value: allocMB("mapreduce.run")},
}

func mrPerRun(key string) func(*tracer) float64 {
	return func(t *tracer) float64 {
		return t.sum("mapreduce.run", key) / float64(t.layers["mapreduce.run"].calls)
	}
}

// runTraced measures the tracing baseline (ops run serially, untraced),
// replays the same ops through the traced layer calls on a fresh set-up,
// checks that each replay produced the untraced op's output, and fills
// layers the workload never calls from one reference pass. The spans are
// written to spansOut ("" = not written).
func runTraced(out io.Writer, w workload, e *env, seconds float64, spansOut string) (result, error) {
	budget := time.Duration(seconds / 2 * float64(time.Second))
	failed, attempted := 0, 0
	var firstFail string
	setup := func() (instance, error) {
		inst, err := w.setup(e)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		for _, s := range inst.setupSamples() {
			attempted++
			if !s.ok {
				failed++
				if firstFail == "" {
					firstFail = s.note
				}
			}
		}
		return inst, nil
	}
	inst, err := setup()
	if err != nil {
		return result{}, err
	}
	var base []sample
	start := time.Now()
	for i := 0; len(base) == 0 || time.Since(start) < budget; i++ {
		base = append(base, inst.serialOp(i))
	}
	inst.close()

	inst, err = setup()
	if err != nil {
		return result{}, err
	}
	defer inst.close()
	t := newTracer()
	var tracedMS, untracedMS []float64
	start = time.Now()
	replayed, replayFailed := 0, 0
	for i := range base {
		if i > 0 && time.Since(start) > budget {
			break
		}
		replayed++
		t.beginOp(i)
		t0 := time.Now()
		dig, err := inst.replay(i, t)
		lat := time.Since(t0) - t.sideDur
		switch {
		case !base[i].ok:
			err = fmt.Errorf("untraced op %d failed: %s", i, base[i].note)
		case err == nil && dig != base[i].digest:
			err = fmt.Errorf("replayed op %d output differs from the untraced op's", i)
		}
		if err != nil {
			failed++
			replayFailed++
			if firstFail == "" {
				firstFail = err.Error()
			}
			continue
		}
		tracedMS = append(tracedMS, float64(lat.Nanoseconds())/1e6)
		untracedMS = append(untracedMS, base[i].ms)
	}

	if f, ok := inst.(interface{ finishTrace(*tracer) error }); ok {
		if err := f.finishTrace(t); err != nil {
			failed++
			if firstFail == "" {
				firstFail = err.Error()
			}
		}
	}
	ref := newTracer()
	if err := referencePass(e, t, ref); err != nil {
		return result{}, fmt.Errorf("reference pass: %w", err)
	}

	opLabel, scope := "op", ""
	if ls, ok := inst.(interface{ layerScope() (string, string) }); ok {
		opLabel, scope = ls.layerScope()
	}
	ms := map[string]metric{}
	notes := map[string]string{}
	for _, m := range layerMetrics {
		if m.perOp {
			l := t.layers[m.layer]
			v := 0.0
			if l != nil {
				v = float64(l.calls) / float64(replayed)
			}
			ms[m.name] = metric{v, m.unit}
			notes[m.name] = "per replayed op"
			if scope != "" {
				notes[m.name] += ", " + opLabel + " only"
			}
			continue
		}
		src, label := t, t.label(m.layer, opLabel)
		if !t.has(m.layer) {
			src, label = ref, "reference"
		}
		ms[m.name] = metric{m.value(src), m.unit}
		calls := 0
		if l := t.layers[m.layer]; l != nil {
			calls = l.calls
		}
		notes[m.name] = fmt.Sprintf("%-9s %.4g calls/op", label, float64(calls)/float64(replayed))
	}
	printTable(out, fmt.Sprintf("perfbench %s traced seed=%d: %d op(s) replayed, per-layer values per call", w.name, e.seed, replayed), ms, notes)
	for _, name := range sortedLayerNames(t) {
		if i := strings.IndexByte(name, '@'); i > 0 {
			label := t.label(name, opLabel)
			fmt.Fprintf(out, "  %-28s %14.4f ms     per call, %s (%s)\n", name[:i]+"_ms", t.perCallMS(name), name[i+1:], label)
		}
	}
	for _, name := range sortedLayerNames(ref) {
		if i := strings.IndexByte(name, '@'); i > 0 {
			fmt.Fprintf(out, "  %-28s %14.4f ms     per call, %s (reference)\n", name[:i]+"_ms", ref.perCallMS(name), name[i+1:])
		}
	}
	if scope != "" {
		fmt.Fprintf(out, "  %s\n", scope)
	}
	if len(tracedMS) > 0 {
		u, tr := median(untracedMS), median(tracedMS)
		fmt.Fprintf(out, "  tracing overhead: traced p50_ms %.4f vs untraced p50_ms %.4f over the same %d op(s): %+.1f%%\n",
			tr, u, len(tracedMS), 100*(tr/u-1))
	}
	fmt.Fprintf(out, "  replay check: %d of %d replayed op(s) reproduced the untraced output\n", replayed-replayFailed, replayed)
	if failed > 0 {
		fmt.Fprintf(out, "  first failure: %s\n", firstFail)
	}
	if spansOut != "" {
		if err := writeSpans(spansOut, t.spans); err != nil {
			return result{}, err
		}
	}
	return result{Correct: failed == 0, Attempted: attempted + replayed, Failed: failed, Metrics: ms}, nil
}

func sortedLayerNames(t *tracer) []string {
	names := make([]string, 0, len(t.layers))
	for n := range t.layers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func writeSpans(path string, spans []span) error {
	blob, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
