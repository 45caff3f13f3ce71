package noc

import (
	"runtime"
	"testing"
)

// benchPackets builds the 64-core uniform workload the nocsim -des path
// and the DES benchmarks use: 2000 four-flit packets at 0.05
// flits/cycle/node.
func benchPackets(n int) []Packet {
	const packets = 2000
	const flits = 4
	const inj = 0.05
	horizon := float64(packets*flits) / (inj * float64(n))
	return uniformTraffic(n, packets, flits, horizon, 1)
}

// TestRunDESZeroAllocSteadyState is the zero-alloc regression for the
// event-calendar engine: once an engine has been warmed on a route table
// and buffer config, a full RunDES — injection, simulation, delivery —
// must not allocate at all. This also pins the fixes for the per-cycle
// channel-scratch churn and the fifo backing-array retention: either
// defect reintroduced shows up as nonzero allocations here.
func TestRunDESZeroAllocSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name string
		rt   *RouteTable
	}{
		{"winoc", winocRT(t, UpDown)},
		{"mesh", meshRT(t, XY)},
	} {
		nm := defaultNM()
		cfg := DefaultDESConfig()
		pkts := benchPackets(tc.rt.topo.NumSwitches())
		if _, err := RunDES(tc.rt, pkts, nm, cfg); err != nil { // warm the engine
			t.Fatal(err)
		}
		var failed error
		avg := testing.AllocsPerRun(10, func() {
			if _, err := RunDES(tc.rt, pkts, nm, cfg); err != nil {
				failed = err
			}
		})
		if failed != nil {
			t.Fatal(failed)
		}
		if avg != 0 {
			t.Errorf("%s: RunDES allocates %.1f times per run after warm-up, want 0", tc.name, avg)
		}
	}
}

// TestFifoPopReleasesSlots pins the named fifo.pop fix: the ring must zero
// a slot on pop so the popped flitRef's pktState is no longer reachable
// through the backing array (the old items = items[1:] reslice retained
// every popped element for the queue's lifetime).
func TestFifoPopReleasesSlots(t *testing.T) {
	f := &fifo{cap: 4}
	ps := &pktState{}
	for i := 0; i < 4; i++ {
		f.push(flitRef{p: ps, idx: i})
	}
	for i := 0; i < 4; i++ {
		got := f.pop()
		if got.idx != i || got.p != ps {
			t.Fatalf("pop %d = {p:%p idx:%d}, want {p:%p idx:%d}", i, got.p, got.idx, ps, i)
		}
	}
	for i, slot := range f.items {
		if slot.p != nil {
			t.Errorf("slot %d still references a pktState after pop", i)
		}
	}
}

// TestFifoRingWraps exercises FIFO ordering across the wrap point and
// confirms the ring never allocates after the first push.
func TestFifoRingWraps(t *testing.T) {
	f := &fifo{cap: 3}
	f.push(flitRef{idx: 0}) // allocate the ring storage
	f.pop()
	next := 1
	expect := 1
	avg := testing.AllocsPerRun(100, func() {
		f.push(flitRef{idx: next})
		next++
		f.push(flitRef{idx: next})
		next++
		if got := f.pop(); got.idx != expect {
			t.Errorf("pop = %d, want %d", got.idx, expect)
		}
		expect++
		if got := f.pop(); got.idx != expect {
			t.Errorf("pop = %d, want %d", got.idx, expect)
		}
		expect++
		if !f.empty() {
			t.Error("fifo not drained")
		}
	})
	if avg != 0 {
		t.Errorf("ring fifo allocates %.1f times per push/pop cycle, want 0", avg)
	}
}

// TestFifoRetentionUnderChurn drives a fifo through sustained churn and
// checks the backing array never grows: the old reslicing pop made the
// append in push allocate a fresh, ever-sliding backing array.
func TestFifoRetentionUnderChurn(t *testing.T) {
	f := &fifo{cap: 8}
	for i := 0; i < 8; i++ {
		f.push(flitRef{idx: i})
	}
	base := &f.items[0]
	for i := 0; i < 10_000; i++ {
		f.pop()
		f.push(flitRef{idx: i})
	}
	if &f.items[0] != base {
		t.Error("fifo backing array was reallocated under churn")
	}
	if len(f.items) != 8 {
		t.Errorf("fifo ring storage is %d slots, want the fixed capacity 8", len(f.items))
	}
	runtime.KeepAlive(base)
}
