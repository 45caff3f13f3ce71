package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"wivfi/internal/obs"
)

// Telemetry: jobs admitted, total time jobs waited for a slot, and the
// number in flight (with high-water mark). Counters are always live and
// allocation-free; the per-job spans in Run record only while a recorder
// is installed.
// Metric names registered below. Declared constants (enforced by
// wivfi-lint countersafe) so every lookup site shares one authoritative
// spelling.
const (
	MetricPoolJobs        = "sim.pool.jobs"
	MetricPoolQueueWaitNS = "sim.pool.queue_wait_ns"
	MetricPoolInFlight    = "sim.pool.in_flight"
	// MetricPhasesReused counts phases whose result a run took from an
	// earlier identical phase of the same run instead of simulating it.
	MetricPhasesReused = "sim.phases.reused"
)

var (
	poolJobs      = obs.NewCounter(MetricPoolJobs)
	poolQueueWait = obs.NewCounter(MetricPoolQueueWaitNS)
	poolInFlight  = obs.NewGauge(MetricPoolInFlight)
	phasesReused  = obs.NewCounter(MetricPhasesReused)
)

// Pool bounds the number of CPU-heavy jobs (system simulations, annealing
// passes) running concurrently. The experiment harness shares one Pool per
// Suite so that fanning out many pipelines does not oversubscribe the host:
// any number of goroutines may call Run, at most cap(sem) jobs compute at
// once.
//
// A nil *Pool is valid and runs every job inline, which keeps call sites
// free of nil checks and makes serial execution (-j 1 semantics with no
// pool at all) trivially available.
type Pool struct {
	// sem carries the slot ids 0..n-1; holding an id is holding an
	// admission slot. The id keys the per-slot trace track, so a Chrome
	// trace shows one lane per concurrent job.
	sem chan int
}

// NewPool returns a pool admitting n concurrent jobs; n < 1 is clamped to 1.
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{sem: make(chan int, n)}
	for i := 0; i < n; i++ {
		p.sem <- i
	}
	return p
}

// DefaultPool sizes the pool to GOMAXPROCS, the right bound for the
// pure-CPU simulation jobs it gates.
func DefaultPool() *Pool {
	return NewPool(runtime.GOMAXPROCS(0))
}

// Size reports the admission bound (1 for a nil pool).
func (p *Pool) Size() int {
	if p == nil {
		return 1
	}
	return cap(p.sem)
}

// Job is one leaf unit of pool work. Name and Detail label its trace span
// (an empty Name records none); Name also identifies the job in a
// re-raised panic.
type Job struct {
	Name, Detail string
	Run          func() error
}

// JobPanic is the value Run re-panics with on the caller's goroutine when
// a job panicked: the job's Name, the original panic value and the stack
// of the goroutine the job ran on.
type JobPanic struct {
	Job   string
	Value any
	Stack []byte
}

func (e *JobPanic) Error() string {
	return fmt.Sprintf("sim: pool job %q panicked: %v\n\njob goroutine stack:\n%s", e.Job, e.Value, e.Stack)
}

// Run executes jobs, at most Size() at a time, each on its own goroutine
// holding one admission slot for its whole run, and waits for all of them.
// It returns the first non-nil error in slice order, whatever order the
// jobs finish in. A nil pool runs the jobs inline, in order.
//
// Jobs must be leaves: a job must never call Run on the same pool, since
// with every slot held by a parent waiting on its children the pool
// deadlocks. Size-1 pools make such nesting deadlock every time, which the
// one-slot tests of the expt and serve packages rely on to prove no
// acquiring path nests. A caller that is itself running inside a job
// passes a nil pool to whatever it calls.
//
// If a job panics, its siblings still run to completion and release their
// slots; Run then re-panics with a *JobPanic for the first panicking job in
// slice order.
func (p *Pool) Run(jobs ...Job) error {
	errs := make([]error, len(jobs))
	panics := make([]*JobPanic, len(jobs))
	if p == nil {
		for i, job := range jobs {
			panics[i], errs[i] = call(job, 0)
		}
	} else {
		var wg sync.WaitGroup
		wg.Add(len(jobs))
		for i := range jobs {
			go func(i int) {
				defer wg.Done()
				panics[i], errs[i] = p.admit(jobs[i])
			}(i)
		}
		wg.Wait()
	}
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

// admit runs job once an admission slot is free, on that slot's trace
// track, and releases the slot when the job returns or panics.
func (p *Pool) admit(job Job) (*JobPanic, error) {
	enqueued := time.Now()
	slot := <-p.sem
	poolQueueWait.Add(int64(time.Since(enqueued)))
	poolJobs.Add(1)
	poolInFlight.Add(1)
	defer func() {
		poolInFlight.Add(-1)
		p.sem <- slot
	}()
	track := int32(0)
	if job.Name != "" && obs.Enabled() {
		track = obs.TrackFor(fmt.Sprintf("pool-slot-%02d", slot))
	}
	return call(job, track)
}

// call runs job under its span on track, converting a panic into a
// *JobPanic that carries the panicking goroutine's stack.
func call(job Job, track int32) (pn *JobPanic, err error) {
	if job.Name != "" && obs.Enabled() {
		sp := obs.StartSpanOn(track, job.Name, job.Detail)
		defer sp.End()
	}
	defer func() {
		if r := recover(); r != nil {
			pn = &JobPanic{Job: job.Name, Value: r, Stack: debug.Stack()}
		}
	}()
	return nil, job.Run()
}
