// Package leaksafe_neg holds the sanctioned goroutine idioms that must
// stay clean under leaksafe: WaitGroup joins, channel-delivered results,
// close-terminated queue drains, and completion signalled by close.
package leaksafe_neg

import "sync"

// waitGroup joins every worker through wg.Done/Wait.
func waitGroup(xs []float64) float64 {
	var wg sync.WaitGroup
	out := make([]float64, len(xs))
	for i, x := range xs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = x * x
		}()
	}
	wg.Wait()
	s := 0.0
	for _, v := range out {
		s += v
	}
	return s
}

// channelResult delivers through a channel the launcher receives on.
func channelResult(x float64) float64 {
	ch := make(chan float64, 1)
	go func() {
		ch <- x * 2
	}()
	return <-ch
}

// drainWorker ranges a work queue that closing terminates, and signals
// completion through the WaitGroup.
func drainWorker(work chan int, done *sync.WaitGroup) {
	done.Add(1)
	go func() {
		defer done.Done()
		for range work {
		}
	}()
}

// closeDone signals completion by closing the channel the launcher waits
// on.
func closeDone(xs []float64, out *float64) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		for _, x := range xs {
			*out += x
		}
		close(done)
	}()
	return done
}
