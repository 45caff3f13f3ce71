package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// usage is a process resource snapshot: CPU of this process plus every
// waited-for child, and this process's peak resident set.
type usage struct {
	cpu     time.Duration
	peakRSS int64 // KiB
}

func readUsage() usage {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)     // cannot fail with a valid pointer
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids) // same
	tv := func(t syscall.Timeval) time.Duration { return time.Duration(t.Nano()) }
	return usage{
		cpu:     tv(self.Utime) + tv(self.Stime) + tv(kids.Utime) + tv(kids.Stime),
		peakRSS: self.Maxrss,
	}
}

// runUntraced sets the workload up `setups` times, then runs closed-loop
// callers for `seconds` and reports the end-to-end metrics.
func runUntraced(out io.Writer, w workload, e *env, seconds float64, setups int) (result, error) {
	if setups < 1 {
		setups = 1
	}
	var (
		inst     instance
		setupS   []float64
		checked  []sample // set-up outputs, checked like ops
		coldSetS []float64
	)
	for r := 0; r < setups; r++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		// Each set-up starts from a collected heap, so one set-up's
		// garbage is not collected on the next one's clock.
		runtime.GC()
		t0 := time.Now()
		in, err := w.setup(e)
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		inst = in
		for _, s := range in.setupSamples() {
			checked = append(checked, s)
			if s.class == classCold && s.ok {
				coldSetS = append(coldSetS, s.ms)
			}
		}
	}
	defer inst.close()
	runtime.GC()

	callers := inst.callers()
	u0 := readUsage()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var next atomic.Int64
	logs := make([]callerLog, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(l *callerLog) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if !time.Now().Before(deadline) && i >= w.minOps {
					return
				}
				l.add(inst.op(i))
			}
		}(&logs[c])
	}
	wg.Wait()
	wall := time.Since(start)
	u1 := readUsage()

	var (
		ops      []opRecord
		childRSS []float64
	)
	failed, attempted := 0, len(checked)
	var firstFail string
	for _, s := range checked {
		if !s.ok {
			failed++
			if firstFail == "" {
				firstFail = s.note
			}
		}
	}
	for _, l := range logs {
		ops = append(ops, l.ops...)
		childRSS = append(childRSS, l.rssKB...)
		if firstFail == "" {
			firstFail = l.firstFail
		}
	}
	attempted += len(ops)
	// Peak RSS of the process doing the work: this one, or, where ops run
	// a child (reproduce), the median child's.
	peakKB := float64(u1.peakRSS)
	if len(childRSS) > 0 {
		peakKB = median(childRSS)
	}
	var all, hot, cold []float64
	var hotOps []opRecord
	correctOps := 0
	callerMS, coldCallerMS := 0.0, 0.0
	for _, s := range ops {
		callerMS += s.ms
		if !s.hot {
			coldCallerMS += s.ms
		}
		if !s.ok {
			failed++
			continue
		}
		correctOps++
		all = append(all, s.ms)
		if s.hot {
			hot = append(hot, s.ms)
			hotOps = append(hotOps, s)
		} else {
			cold = append(cold, s.ms)
		}
	}
	// reproduce's ops are all warm; its cold class is its set-up's cold
	// regenerations.
	coldFromSetup := len(cold) == 0
	if coldFromSetup {
		cold = coldSetS
	}
	tAll, tHot := tailOf(all), tailOf(hot)
	ms := map[string]metric{
		"ops_per_s":     {float64(correctOps) / wall.Seconds(), "1/s"},
		"p50_ms":        {median(all), "ms"},
		"tail_ms":       {tAll.reported(all), "ms"},
		"cpu_ms_per_op": {float64((u1.cpu - u0.cpu).Microseconds()) / 1000 / float64(len(ops)), "ms"},
		"setup_s":       {median(setupS), "s"},
		"peak_rss_mb":   {peakKB / 1024, "MB"},
		"hot_p50_ms":    {median(hot), "ms"},
		"hot_tail_ms":   {tHot.reported(hot), "ms"},
		"cold_p50_ms":   {median(cold), "ms"},
	}
	notes := map[string]string{
		"tail_ms":     "tail " + tailNote(tAll),
		"hot_tail_ms": "tail " + tailNote(tHot),
		"hot_p50_ms":  fmt.Sprintf("n=%d", len(hot)),
		"cold_p50_ms": fmt.Sprintf("n=%d, %.1f%% of caller time", len(cold), 100*coldCallerMS/callerMS),
		"setup_s":     fmt.Sprintf("median of %d set-ups: %s s", len(setupS), fmtList(setupS)),
		"ops_per_s":   fmt.Sprintf("%d correct ops in %.2f s, %d callers", correctOps, wall.Seconds(), callers),
	}
	if coldFromSetup {
		notes["cold_p50_ms"] = fmt.Sprintf("n=%d set-up cold runs (no cold ops)", len(cold))
	}
	if len(hot) == len(all) {
		notes["hot_p50_ms"] += ", every op is hot: repeats p50_ms"
		notes["hot_tail_ms"] += ", repeats tail_ms"
	}
	if c, ok := inst.(interface {
		coldCPUShare(int, time.Duration) (float64, float64)
	}); ok {
		est, upper := c.coldCPUShare(len(cold), u1.cpu-u0.cpu)
		notes["cpu_ms_per_op"] = fmt.Sprintf("cold ops ~%.1f%% of it (at most %.1f%%)", 100*est, 100*upper)
	}
	if n := busyBeyondTail(hotOps); n >= 0 {
		notes["hot_tail_ms"] += fmt.Sprintf(", %d of the %d slowest hot ops overlapped a cold op", n, tailSamples)
	}
	printTable(out, fmt.Sprintf("perfbench %s seed=%d seconds=%g nproc=%d", w.name, e.seed, seconds, e.procs), ms, notes)
	fmt.Fprintf(out, "  %-28s %14.4f %-6s  %d failed of %d attempted\n", "fail_ratio", float64(failed)/float64(attempted), "ratio", failed, attempted)
	if failed > 0 {
		fmt.Fprintf(out, "  first failure: %s\n", firstFail)
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: ms}, nil
}

// opRecord is what a run keeps of one checked op. It is small because
// serve runs hundreds of thousands of ops in the process whose peak RSS
// it reports.
type opRecord struct {
	ms            float64
	hot, ok, busy bool
}

// callerLog is one closed-loop caller's record of its ops.
type callerLog struct {
	ops       []opRecord
	rssKB     []float64 // peak RSS of each op's child process, if ops run one
	firstFail string
}

func (l *callerLog) add(s sample) {
	l.ops = append(l.ops, opRecord{ms: s.ms, hot: s.class == classHot, ok: s.ok, busy: s.busy})
	if s.rssKB > 0 {
		l.rssKB = append(l.rssKB, float64(s.rssKB))
	}
	if !s.ok && l.firstFail == "" {
		l.firstFail = s.note
	}
}

// busyBeyondTail counts how many of the tailSamples slowest hot ops ran
// while a cold op was in flight; -1 when the workload does not record it
// or the sample leaves no tail.
func busyBeyondTail(hot []opRecord) int {
	anyBusy := false
	for _, s := range hot {
		anyBusy = anyBusy || s.busy
	}
	if !anyBusy || !tailOf(make([]float64, len(hot))).OK {
		return -1
	}
	sorted := append([]opRecord(nil), hot...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ms > sorted[j].ms })
	n := 0
	for _, s := range sorted[:tailSamples] {
		if s.busy {
			n++
		}
	}
	return n
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

func tailNote(t tail) string {
	if t.OK {
		return t.String()
	}
	return t.String() + ", reporting the maximum"
}
