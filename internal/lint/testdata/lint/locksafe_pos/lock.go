// Package locksafe_pos collects the mutex-discipline violations the
// locksafe analyzer must catch: blocking channel operations and pool
// acquisition under a held lock, early returns that skip the unlock, and
// calls that re-lock a mutex the caller already holds.
package locksafe_pos

import (
	"sync"

	"wivfi/internal/sim"
)

type box struct {
	mu  sync.Mutex
	val int
}

// earlyReturn leaks the lock on the failure path: the return before the
// unlock leaves b.mu held forever.
func earlyReturn(b *box, fail bool) int {
	b.mu.Lock()
	if fail {
		return -1
	}
	v := b.val
	b.mu.Unlock()
	return v
}

// sendUnderLock blocks on a channel send while holding the lock.
func sendUnderLock(b *box, ch chan int) {
	b.mu.Lock()
	ch <- b.val
	b.mu.Unlock()
}

// recvUnderLock blocks on a receive while holding the lock; the deferred
// unlock does not excuse the unbounded wait.
func recvUnderLock(b *box, ch chan int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.val + <-ch
}

// selectUnderLock parks in a select while holding the lock.
func selectUnderLock(b *box, ch chan int, done chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case v := <-ch:
		b.val = v
	case <-done:
	}
}

// drainUnderLock ranges over a channel while holding the lock: every
// iteration is an unbounded wait.
func drainUnderLock(b *box, ch chan int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for v := range ch {
		b.val += v
	}
}

// poolUnderLock waits for an admission slot while holding the lock; a
// saturated pool stalls every contender of b.mu.
func poolUnderLock(b *box, pool *sim.Pool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	_ = pool.Run()
}

type counter struct {
	mu sync.Mutex
	n  int
}

func (c *counter) bump() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// snapshotAndBump self-deadlocks: bump re-locks the mutex this method
// already holds.
func (c *counter) snapshotAndBump() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bump()
	return c.n
}
