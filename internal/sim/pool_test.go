package sim

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// peakJobs returns n jobs that record the peak number running at once.
func peakJobs(n int, cur, peak *atomic.Int64) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Name: "peak", Run: func() error {
			n := cur.Add(1)
			for {
				old := peak.Load()
				if n <= old || peak.CompareAndSwap(old, n) {
					break
				}
			}
			time.Sleep(100 * time.Microsecond) // hold the slot briefly
			cur.Add(-1)
			return nil
		}}
	}
	return jobs
}

func TestPoolBoundsConcurrency(t *testing.T) {
	p := NewPool(3)
	if p.Size() != 3 {
		t.Fatalf("Size = %d", p.Size())
	}
	var cur, peak atomic.Int64
	before := poolJobs.Value()
	if err := p.Run(peakJobs(50, &cur, &peak)...); err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > 3 {
		t.Errorf("observed %d concurrent jobs in a pool of 3", got)
	}
	if got := poolJobs.Value() - before; got != 50 {
		t.Errorf("%s advanced by %d, want 50", MetricPoolJobs, got)
	}
}

func TestNilPoolRunsInline(t *testing.T) {
	var p *Pool
	if p.Size() != 1 {
		t.Fatalf("nil pool Size = %d", p.Size())
	}
	var order []int
	jobs := make([]Job, 5)
	for i := range jobs {
		jobs[i] = Job{Run: func() error { order = append(order, i); return nil }}
	}
	if err := p.Run(jobs...); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[0 1 2 3 4]" {
		t.Errorf("nil pool ran jobs in order %v, want slice order", order)
	}
}

// TestPoolRunFirstErrorInSliceOrder makes job 2 fail strictly before job 0
// does: Run must still report job 0's error, and every job must have run.
func TestPoolRunFirstErrorInSliceOrder(t *testing.T) {
	errFirst, errLater := errors.New("job 0"), errors.New("job 2")
	laterFailed := make(chan struct{})
	var ran atomic.Int64
	jobs := []Job{
		{Run: func() error { ran.Add(1); <-laterFailed; return errFirst }},
		{Run: func() error { ran.Add(1); return nil }},
		{Run: func() error { ran.Add(1); defer close(laterFailed); return errLater }},
		{Run: func() error { ran.Add(1); return nil }},
	}
	if err := NewPool(4).Run(jobs...); err != errFirst {
		t.Errorf("Run = %v, want %v (first in slice order)", err, errFirst)
	}
	if got := ran.Load(); got != int64(len(jobs)) {
		t.Errorf("%d of %d jobs ran after a failure", got, len(jobs))
	}
	var p *Pool
	inline := []Job{
		{Run: func() error { return nil }},
		{Run: func() error { return errFirst }},
		{Run: func() error { return errLater }},
	}
	if err := p.Run(inline...); err != errFirst {
		t.Errorf("nil pool: Run = %v, want %v", err, errFirst)
	}
}

// TestPoolRunRepanicsOnCaller pins the panic contract: a panicking job
// surfaces on the caller's goroutine as a *JobPanic naming it, its
// siblings still run, and every slot is released.
func TestPoolRunRepanicsOnCaller(t *testing.T) {
	p := NewPool(2)
	var ran atomic.Int64
	jobs := make([]Job, 6)
	for i := range jobs {
		jobs[i] = Job{Name: fmt.Sprintf("job-%d", i), Run: func() error {
			ran.Add(1)
			if i == 3 {
				panic("boom")
			}
			return nil
		}}
	}
	func() {
		defer func() {
			pn, ok := recover().(*JobPanic)
			if !ok {
				t.Fatalf("recovered %T, want *JobPanic", pn)
			}
			if pn.Job != "job-3" || pn.Value != "boom" || !strings.Contains(string(pn.Stack), "pool_test.go") {
				t.Errorf("JobPanic = {%q, %v, %d-byte stack}, want job-3/boom with the job's stack", pn.Job, pn.Value, len(pn.Stack))
			}
			if !strings.Contains(pn.Error(), `"job-3"`) {
				t.Errorf("panic message does not name the job: %s", pn.Error())
			}
		}()
		_ = p.Run(jobs...)
		t.Fatal("Run returned instead of re-panicking")
	}()
	if got := ran.Load(); got != int64(len(jobs)) {
		t.Errorf("%d of %d jobs ran", got, len(jobs))
	}
	// Every slot came back: Size() jobs that each wait for all the others
	// can only finish if they are admitted together.
	var arrived sync.WaitGroup
	arrived.Add(p.Size())
	barrier := make([]Job, p.Size())
	for i := range barrier {
		barrier[i] = Job{Run: func() error { arrived.Done(); arrived.Wait(); return nil }}
	}
	done := make(chan error, 1)
	go func() { done <- p.Run(barrier...) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("pool no longer admits Size() jobs at once: a panicking job leaked its slot")
	}
}

func TestPoolClampsToOne(t *testing.T) {
	if got := NewPool(0).Size(); got != 1 {
		t.Errorf("NewPool(0).Size() = %d, want 1", got)
	}
	if got := NewPool(-5).Size(); got != 1 {
		t.Errorf("NewPool(-5).Size() = %d, want 1", got)
	}
}
